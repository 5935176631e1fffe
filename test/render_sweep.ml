(* Exhaustive check of Time.render against the C formatter, too long for
   `dune runtest`:

     dune exec test/render_sweep.exe

   Time.render rounds "%.2f" with integer arithmetic and one fma; the
   reference prints the same double through Printf's "%.2f"
   (caml_format_float).  Both the formatter and fma belong to the
   runtime, so the sweep is run on every supported compiler.  It covers
   every |t| <= 2e6 us, every decimal midpoint of the s and min units
   +-1 (min up to 1e12 us), the ends of the int range, and 1e6 random
   draws over the whole int range, both signs.  Prints the first
   mismatches and exits 1 on any. *)

open Artemis

let reference us =
  let t = Time.of_us us in
  let abs = Stdlib.abs us in
  if abs < 1_000 then Printf.sprintf "%dus" us
  else if abs < 1_000_000 then Printf.sprintf "%.2fms" (Time.to_ms_f t)
  else if abs < 60_000_000 then Printf.sprintf "%.2fs" (Time.to_sec_f t)
  else Printf.sprintf "%.2fmin" (Time.to_min_f t)

let checked = ref 0
let mismatches = ref 0
let buf = Buffer.create 32

let check us =
  incr checked;
  Buffer.clear buf;
  Time.render buf (Time.of_us us);
  let want = reference us in
  if not (String.equal (Buffer.contents buf) want) then begin
    incr mismatches;
    if !mismatches <= 20 then
      Printf.printf "mismatch at %d us: render %S, %%.2f %S\n" us
        (Buffer.contents buf) want
  end

(* Midpoints [k * q + q / 2] of one unit's hundredths, from [lo] to
   [hi], each with its two neighbours.  Rounding reads only |t|; the
   sign is covered by the dense range and the random draws. *)
let midpoints ~q ~lo ~hi =
  let k = ref (lo / q) in
  while (!k * q) + (q / 2) <= hi do
    let mid = (!k * q) + (q / 2) in
    for d = -1 to 1 do
      check (mid + d)
    done;
    incr k
  done

(* A log-uniform magnitude, so every unit and both sides of 2^53 get
   draws; width 63 is the raw 63-bit pattern, [min_int] side included. *)
let random_int rng =
  let raw =
    Random.State.bits rng
    lor (Random.State.bits rng lsl 30)
    lor (Random.State.bits rng lsl 60)
  in
  let width = Random.State.int rng 64 in
  if width = 63 then raw
  else
    let m = raw land ((1 lsl width) - 1) in
    if Random.State.bool rng then -m else m

let () =
  let t0 = Sys.time () in
  for us = -2_000_000 to 2_000_000 do
    check us
  done;
  List.iter check [ min_int; min_int + 1; max_int; 1 lsl 53; -(1 lsl 53) ];
  midpoints ~q:10_000 ~lo:1_000_000 ~hi:60_000_000;
  midpoints ~q:600_000 ~lo:60_000_000 ~hi:1_000_000_000_000;
  let rng = Random.State.make [| 2024 |] in
  for _ = 1 to 1_000_000 do
    check (random_int rng)
  done;
  Printf.printf "render sweep: %d values, %d mismatches (%.1f s)\n" !checked
    !mismatches
    (Sys.time () -. t0);
  if !mismatches > 0 then exit 1
