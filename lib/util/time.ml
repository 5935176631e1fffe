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

(* Printf's "%.2f" is this primitive applied to the format "%.2f". *)
external format_float : string -> float -> string = "caml_format_float"

let two_pow_53 = 1 lsl 53

(* [%.2f] of [to_f t] from integers: the remainder [m] decides, and at a
   decimal midpoint the sign of one fma residual does.  Why this is
   exact below 2^53 is in time.mli, at [render]. *)
let add_fixed2 buf t ~scale to_f unit =
  let a = Stdlib.abs t in
  if Stdlib.( >= ) a two_pow_53 then
    Buffer.add_string buf (format_float "%.2f" (to_f t))
  else begin
    let q = scale / 100 in
    let n = a / q and m = a mod q in
    let half = q / 2 in
    let hundredths =
      if Stdlib.( < ) m half then n
      else if Stdlib.( > ) m half then n + 1
      else
        let r = Float.fma (to_f a) (float_of_int scale) (-.float_of_int a) in
        if Stdlib.( > ) r 0. then n + 1
        else if Stdlib.( < ) r 0. then n
        else n + (n land 1)
    in
    if Stdlib.( < ) t 0 then Buffer.add_char buf '-';
    Json.add_int buf (hundredths / 100);
    Buffer.add_char buf '.';
    let f = hundredths mod 100 in
    Buffer.add_char buf (Char.unsafe_chr (48 + (f / 10)));
    Buffer.add_char buf (Char.unsafe_chr (48 + (f mod 10)))
  end;
  Buffer.add_string buf unit

(* [Stdlib.abs min_int] is [min_int], so [min_int] renders in us. *)
let render buf t =
  let abs = Stdlib.abs t in
  if Stdlib.( < ) abs 1_000 then begin
    Json.add_int buf t;
    Buffer.add_string buf "us"
  end
  else if Stdlib.( < ) abs 1_000_000 then
    add_fixed2 buf t ~scale:1_000 to_ms_f "ms"
  else if Stdlib.( < ) abs 60_000_000 then
    add_fixed2 buf t ~scale:1_000_000 to_sec_f "s"
  else add_fixed2 buf t ~scale:60_000_000 to_min_f "min"

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
