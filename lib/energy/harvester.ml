open Artemis_util

type t =
  | Constant of Energy.power
  | Duty_cycle of { period : Time.t; on_fraction : float; rate : Energy.power }
  | Trace of (Time.t * Energy.power) array

let duty_cycle ~avg_uw =
  Duty_cycle
    {
      period = Time.of_min 2;
      on_fraction = 0.5;
      rate = Energy.uw (2. *. avg_uw);
    }

let duty_on_len period on_fraction =
  Time.of_us
    (int_of_float (Float.round (float_of_int (Time.to_us period) *. on_fraction)))

(* A rate, or a duty cycle's energy per period, past the float range
   makes [integral] NaN (infinity times zero whole cycles), and
   [time_to_harvest]'s search never reaches its target. *)
let check_rate what p =
  let uw = Energy.to_uw p in
  if uw < 0. then Error (what ^ " rate is negative")
  else if not (Float.is_finite uw) then Error (what ^ " rate is not finite")
  else Ok ()

let validate = function
  | Constant p -> check_rate "constant" p
  | Duty_cycle { period; on_fraction; rate } ->
      if Time.(period <= zero) then Error "duty-cycle period must be positive"
      else if on_fraction < 0. || on_fraction > 1. then
        Error "on_fraction must be within [0, 1]"
      else
        Result.bind (check_rate "duty-cycle" rate) (fun () ->
            let per_period =
              Energy.consumed rate (duty_on_len period on_fraction)
            in
            if Float.is_finite (Energy.to_uj per_period) then Ok ()
            else Error "duty-cycle energy per period is not finite")
  | Trace arr ->
      if Array.length arr = 0 then Error "empty trace"
      else if not (Time.equal (fst arr.(0)) Time.zero) then
        Error "trace must start at time 0"
      else
        let rec check i =
          if i >= Array.length arr then Ok ()
          else if i > 0 && Time.(fst arr.(i - 1) >= fst arr.(i)) then
            Error "trace times must be strictly increasing"
          else
            Result.bind (check_rate "trace" (snd arr.(i))) (fun () ->
                check (i + 1))
        in
        check 0

(* --- Trace lookup --- *)

(* Largest [i] with [fst arr.(i) <= at], or [-1] if [at] precedes the
   first sample. *)
let bsearch arr at =
  let n = Array.length arr in
  if n = 0 || Time.(at < fst arr.(0)) then -1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if Time.(fst arr.(mid) <= at) then lo := mid else hi := mid - 1
    done;
    !lo
  end

let rate_at t at =
  match t with
  | Constant p -> p
  | Duty_cycle { period; on_fraction; rate } ->
      let phase = Time.of_us (Time.to_us at mod Time.to_us period) in
      if Time.(phase < duty_on_len period on_fraction) then rate else Energy.uw 0.
  | Trace arr ->
      let i = bsearch arr at in
      if i < 0 then Energy.uw 0. else snd arr.(i)

(* Integral of the incoming power from time 0 to [at]. *)
let integral t at =
  match t with
  | Constant p -> Energy.consumed p at
  | Duty_cycle { period; on_fraction; rate } ->
      let on_len = duty_on_len period on_fraction in
      let cycles = Time.to_us at / Time.to_us period in
      let phase = Time.of_us (Time.to_us at mod Time.to_us period) in
      let per_cycle = Energy.consumed rate on_len in
      let partial = Energy.consumed rate (Time.min phase on_len) in
      Energy.add (Energy.scale per_cycle (float_of_int cycles)) partial
  | Trace arr ->
      (* whole segments before [at], then the partial one, summed left
         to right *)
      let i = bsearch arr at in
      let acc = ref Energy.zero in
      for k = 0 to i - 1 do
        let start, rate = arr.(k) in
        acc := Energy.add !acc (Energy.consumed rate (Time.sub (fst arr.(k + 1)) start))
      done;
      if i >= 0 && Time.(fst arr.(i) < at) then
        let start, rate = arr.(i) in
        Energy.add !acc (Energy.consumed rate (Time.sub at start))
      else !acc

let harvested t ~from_ ~until =
  if Time.(until < from_) then invalid_arg "Harvester.harvested: until < from";
  Energy.sub_exact (integral t until) (integral t from_)

let time_to_harvest t ~now needed =
  if Energy.(needed <= Energy.zero) then Some Time.zero
  else
    match t with
    | Constant p ->
        if Energy.to_uw p <= 0. then None
        else Some (Energy.time_to_consume p needed)
    | Duty_cycle { period; on_fraction; rate } ->
        let on_len = duty_on_len period on_fraction in
        let per_cycle = Energy.consumed rate on_len in
        if Energy.to_uj per_cycle <= 0. then None
        else
          (* Scan forward cycle by cycle; bounded because each full cycle
             collects a fixed positive amount. *)
          let target = Energy.add (integral t now) needed in
          let cycles_hint =
            int_of_float (Energy.to_uj target /. Energy.to_uj per_cycle)
          in
          let rec refine at =
            let have = integral t at in
            if Energy.(target <= have) then at
            else
              let missing = Energy.sub_exact target have in
              let r = rate_at t at in
              if Energy.to_uw r > 0. then
                (* the microsecond floor guarantees progress when the
                   remaining energy rounds to less than 1 us of harvesting *)
                let step = Time.max (Time.of_us 1) (Energy.time_to_consume r missing) in
                refine (Time.add at step)
              else
                (* inside the off segment: jump to the next period start *)
                let next =
                  Time.of_us
                    ((Time.to_us at / Time.to_us period + 1) * Time.to_us period)
                in
                refine next
          in
          let start = Time.scale period (Stdlib.max 0 (cycles_hint - 1)) in
          let finish = refine (Time.max now start) in
          Some (Time.sub finish now)
    | Trace arr ->
        let n = Array.length arr in
        let rec scan i at remaining =
          if Energy.(remaining <= Energy.zero) then Some (Time.sub at now)
          else if i >= n - 1 then
            let rate = snd arr.(n - 1) in
            if Energy.to_uw rate <= 0. then None
            else Some (Time.sub (Time.add at (Energy.time_to_consume rate remaining)) now)
          else
            let seg_end = fst arr.(i + 1) in
            if Time.(seg_end <= at) then scan (i + 1) at remaining
            else
              let rate = snd arr.(i) in
              let seg_energy = Energy.consumed rate (Time.sub seg_end at) in
              if Energy.(remaining <= seg_energy) && Energy.to_uw rate > 0. then
                Some (Time.sub (Time.add at (Energy.time_to_consume rate remaining)) now)
              else scan (i + 1) seg_end (Energy.sub_exact remaining seg_energy)
        in
        scan (Stdlib.max (bsearch arr now) 0) now needed
