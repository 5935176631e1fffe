type t = int

let zero = 0
let of_us us = us
let of_ms ms = ms * 1_000
let of_sec s = s * 1_000_000
let of_min m = m * 60_000_000
let of_sec_f s = int_of_float (Float.round (s *. 1e6))
let to_us t = t
let to_ms_f t = float_of_int t /. 1e3
let to_sec_f t = float_of_int t /. 1e6
let to_min_f t = float_of_int t /. 60e6
let add = ( + )
let sub = ( - )
let scale t k = t * k
let divide t k = t / k
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let min = Stdlib.min
let max = Stdlib.max
let is_negative t = Stdlib.( < ) t 0

(* Printf's "%.2f" is this primitive applied to the format "%.2f":
   calling it directly skips the format interpreter and keeps every
   byte, rounding included. *)
external format_float : string -> float -> string = "caml_format_float"

let add_fixed2 buf x unit =
  Buffer.add_string buf (format_float "%.2f" x);
  Buffer.add_string buf unit

let render buf t =
  let abs = Stdlib.abs t in
  if Stdlib.( < ) abs 1_000 then begin
    Buffer.add_string buf (Int.to_string t);
    Buffer.add_string buf "us"
  end
  else if Stdlib.( < ) abs 1_000_000 then add_fixed2 buf (to_ms_f t) "ms"
  else if Stdlib.( < ) abs 60_000_000 then add_fixed2 buf (to_sec_f t) "s"
  else add_fixed2 buf (to_min_f t) "min"

let to_string t =
  let buf = Buffer.create 16 in
  render buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

let to_literal t =
  if t mod 60_000_000 = 0 && t <> 0 then
    Printf.sprintf "%dmin" (t / 60_000_000)
  else if t mod 1_000_000 = 0 && t <> 0 then Printf.sprintf "%ds" (t / 1_000_000)
  else if t mod 1_000 = 0 && t <> 0 then Printf.sprintf "%dms" (t / 1_000)
  else Printf.sprintf "%dus" t
