open Artemis

let checkf = Alcotest.(check (float 1e-6))
let uj e = Energy.to_uj e

let test_constant () =
  let h = Harvester.Constant (Energy.mw 2.) in
  checkf "integrates" 2_000.
    (uj (Harvester.harvested h ~from_:Time.zero ~until:(Time.of_sec 1)));
  match Harvester.time_to_harvest h ~now:Time.zero (Energy.mj 1.) with
  | Some t -> Alcotest.check Helpers.time "500ms" (Time.of_ms 500) t
  | None -> Alcotest.fail "expected a duration"

let test_constant_zero_starves () =
  let h = Harvester.Constant (Energy.uw 0.) in
  Alcotest.(check bool)
    "never harvests" true
    (Harvester.time_to_harvest h ~now:Time.zero (Energy.uj 1.) = None)

let duty =
  (* 1 s period, 2 mW during the first 25% -> 0.5 mJ per period *)
  Harvester.Duty_cycle
    { period = Time.of_sec 1; on_fraction = 0.25; rate = Energy.mw 2. }

let test_duty_rate_at () =
  checkf "on phase" 2_000. (Energy.to_uw (Harvester.rate_at duty (Time.of_ms 100)));
  checkf "off phase" 0. (Energy.to_uw (Harvester.rate_at duty (Time.of_ms 600)));
  checkf "next period on" 2_000.
    (Energy.to_uw (Harvester.rate_at duty (Time.of_ms 1_100)))

let test_duty_integral () =
  checkf "two full periods" 1_000.
    (uj (Harvester.harvested duty ~from_:Time.zero ~until:(Time.of_sec 2)));
  (* 125 ms into the on-phase at 2 mW *)
  checkf "half an on-phase" 250.
    (uj (Harvester.harvested duty ~from_:Time.zero ~until:(Time.of_ms 125)))

let test_duty_time_to_harvest () =
  (* 1.25 mJ = 2 periods (1.0 mJ) + half an on-phase (125 ms) *)
  match Harvester.time_to_harvest duty ~now:Time.zero (Energy.uj 1_250.) with
  | Some t -> Alcotest.check Helpers.time "2.125s" (Time.of_us 2_125_000) t
  | None -> Alcotest.fail "expected a duration"

let trace =
  Harvester.Trace
    [|
      (Time.zero, Energy.mw 1.);
      (Time.of_sec 1, Energy.uw 0.);
      (Time.of_sec 2, Energy.mw 4.);
    |]

let test_trace_integral () =
  checkf "first segment only" 1_000.
    (uj (Harvester.harvested trace ~from_:Time.zero ~until:(Time.of_sec 2)));
  checkf "with last segment" 5_000.
    (uj (Harvester.harvested trace ~from_:Time.zero ~until:(Time.of_sec 3)))

let test_trace_time_to_harvest () =
  (* starting inside the dead segment, 2 mJ needs 0.5 s of the 4 mW tail
     reached after 0.5 s of waiting *)
  match
    Harvester.time_to_harvest trace ~now:(Time.of_us 1_500_000) (Energy.mj 2.)
  with
  | Some t -> Alcotest.check Helpers.time "1s" (Time.of_sec 1) t
  | None -> Alcotest.fail "expected a duration"

let test_trace_starvation () =
  let dead =
    Harvester.Trace [| (Time.zero, Energy.mw 1.); (Time.of_sec 1, Energy.uw 0.) |]
  in
  Alcotest.(check bool)
    "dead tail starves" true
    (Harvester.time_to_harvest dead ~now:(Time.of_sec 5) (Energy.uj 1.) = None)

let test_validate () =
  let ok h = Alcotest.(check bool) "valid" true (Harvester.validate h = Ok ()) in
  ok duty;
  ok trace;
  ok (Harvester.duty_cycle ~avg_uw:1e300);
  let bad h = Alcotest.(check bool) "invalid" true (Result.is_error (Harvester.validate h)) in
  bad (Harvester.Duty_cycle { period = Time.zero; on_fraction = 0.5; rate = Energy.mw 1. });
  bad (Harvester.Duty_cycle { period = Time.of_sec 1; on_fraction = 1.5; rate = Energy.mw 1. });
  bad (Harvester.Trace [||]);
  bad (Harvester.Trace [| (Time.of_sec 1, Energy.mw 1.) |]);
  bad (Harvester.Trace [| (Time.zero, Energy.mw 1.); (Time.zero, Energy.mw 2.) |]);
  (* an overflowing rate, and a finite rate whose energy per period
     overflows *)
  bad (Harvester.duty_cycle ~avg_uw:1e308);
  bad (Harvester.duty_cycle ~avg_uw:8.9e307);
  bad (Harvester.Constant (Energy.uw Float.infinity));
  bad (Harvester.Trace [| (Time.zero, Energy.uw Float.nan) |])

(* time_to_harvest is consistent with harvested: collecting for the
   returned duration yields at least the requested energy. *)
let consistency =
  QCheck.Test.make ~name:"time_to_harvest consistent with harvested" ~count:200
    QCheck.(pair (float_range 1. 5_000.) (int_range 0 3_000_000))
    (fun (need_uj, now_us) ->
      let now = Time.of_us now_us in
      let need = Energy.uj need_uj in
      match Harvester.time_to_harvest duty ~now need with
      | None -> false
      | Some dt ->
          let got = Harvester.harvested duty ~from_:now ~until:(Time.add now dt) in
          Energy.to_uj got +. 1e-3 >= need_uj)

(* --- differential tests for the binary-search trace lookup ---

   The optimized rate_at/integral must agree with the naive O(n) scan
   they replaced, on random traces and random (including monotone and
   interleaved-across-arrays) query orders. *)

let naive_rate_at arr at =
  let rec find i best =
    if i >= Array.length arr then best
    else if Time.(fst arr.(i) <= at) then find (i + 1) (snd arr.(i))
    else best
  in
  find 0 (Energy.uw 0.)

let naive_integral arr at =
  let n = Array.length arr in
  let acc = ref Energy.zero in
  for i = 0 to n - 1 do
    let seg_start, rate = arr.(i) in
    let seg_end = if i + 1 < n then fst arr.(i + 1) else at in
    let seg_end = Time.min seg_end at in
    if Time.(seg_start < seg_end) then
      acc := Energy.add !acc (Energy.consumed rate (Time.sub seg_end seg_start))
  done;
  !acc

(* a strictly-increasing trace starting at 0 from random positive gaps *)
let trace_of_gaps gaps =
  let t = ref 0 in
  Array.of_list
    (List.mapi
       (fun i (gap_us, rate_uw) ->
         if i > 0 then t := !t + gap_us;
         (Time.of_us !t, Energy.uw rate_uw))
       gaps)

let gaps_gen =
  QCheck.(
    list_of_size
      (Gen.int_range 1 40)
      (pair (int_range 1 500_000) (float_range 0. 5_000.)))

let trace_differential =
  QCheck.Test.make ~name:"trace lookup agrees with the naive scan" ~count:300
    QCheck.(pair gaps_gen (list_of_size (Gen.int_range 1 30) (int_range 0 25_000_000)))
    (fun (gaps, queries) ->
      let arr = trace_of_gaps gaps in
      let h = Harvester.Trace arr in
      List.for_all
        (fun q ->
          let at = Time.of_us q in
          Energy.to_uw (Harvester.rate_at h at)
          = Energy.to_uw (naive_rate_at arr at)
          && Energy.to_uj (Harvester.harvested h ~from_:Time.zero ~until:at)
             = Energy.to_uj (naive_integral arr at))
        queries)

let trace_differential_monotone =
  QCheck.Test.make
    ~name:"monotone queries ride the cursor and agree with the naive scan"
    ~count:200
    QCheck.(pair gaps_gen (list_of_size (Gen.int_range 1 30) (int_range 0 1_000_000)))
    (fun (gaps, steps) ->
      let arr = trace_of_gaps gaps in
      let h = Harvester.Trace arr in
      let at = ref 0 in
      List.for_all
        (fun step ->
          at := !at + step;
          let q = Time.of_us !at in
          Energy.to_uw (Harvester.rate_at h q)
          = Energy.to_uw (naive_rate_at arr q)
          && Energy.to_uj (Harvester.harvested h ~from_:Time.zero ~until:q)
             = Energy.to_uj (naive_integral arr q))
        steps)

(* alternating queries across two distinct arrays: a lookup must
   depend on nothing but its own trace *)
let trace_differential_interleaved =
  QCheck.Test.make ~name:"interleaved arrays invalidate the cursor cache"
    ~count:100
    QCheck.(triple gaps_gen gaps_gen (list_of_size (Gen.int_range 1 20) (int_range 0 25_000_000)))
    (fun (gaps_a, gaps_b, queries) ->
      let a = trace_of_gaps gaps_a and b = trace_of_gaps gaps_b in
      let ha = Harvester.Trace a and hb = Harvester.Trace b in
      List.for_all
        (fun q ->
          let at = Time.of_us q in
          Energy.to_uj (Harvester.harvested ha ~from_:Time.zero ~until:at)
          = Energy.to_uj (naive_integral a at)
          && Energy.to_uj (Harvester.harvested hb ~from_:Time.zero ~until:at)
             = Energy.to_uj (naive_integral b at)
          && Energy.to_uw (Harvester.rate_at ha at)
             = Energy.to_uw (naive_rate_at a at))
        queries)

let suite =
  [
    Alcotest.test_case "constant rate" `Quick test_constant;
    Alcotest.test_case "zero rate starves" `Quick test_constant_zero_starves;
    Alcotest.test_case "duty cycle rate_at" `Quick test_duty_rate_at;
    Alcotest.test_case "duty cycle integral" `Quick test_duty_integral;
    Alcotest.test_case "duty cycle time_to_harvest" `Quick
      test_duty_time_to_harvest;
    Alcotest.test_case "trace integral" `Quick test_trace_integral;
    Alcotest.test_case "trace time_to_harvest" `Quick test_trace_time_to_harvest;
    Alcotest.test_case "trace starvation" `Quick test_trace_starvation;
    Alcotest.test_case "validation" `Quick test_validate;
    QCheck_alcotest.to_alcotest consistency;
    QCheck_alcotest.to_alcotest trace_differential;
    QCheck_alcotest.to_alcotest trace_differential_monotone;
    QCheck_alcotest.to_alcotest trace_differential_interleaved;
  ]
