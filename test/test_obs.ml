open Artemis

(* Every test records into a fresh context of its own, installed as the
   current one so the devices a scenario builds record into it too;
   other suites run in the same binary and never see it. *)
let with_obs ?(metrics = false) ?(tracing = false) f =
  let obs = Obs.create () in
  Obs.set_metrics obs metrics;
  Obs.set_tracing obs tracing;
  Obs.with_ctx obs (fun () -> f obs)

let test_disabled_is_inert () =
  with_obs (fun obs ->
      let c = Obs.counter "test_inert_counter" in
      let g = Obs.gauge "test_inert_gauge" in
      let h = Obs.histogram "test_inert_hist" in
      Obs.incr obs c;
      Obs.add obs c 10;
      Obs.set_gauge obs g 3.5;
      Obs.observe_us obs h 42;
      Obs.span obs ~cat:"test" ~begin_us:0 ~end_us:5 "s";
      Obs.instant obs ~cat:"test" "i";
      Alcotest.(check int) "counter untouched" 0 (Obs.counter_value obs c);
      Alcotest.(check (float 0.)) "gauge untouched" 0. (Obs.gauge_value obs g);
      Alcotest.(check int) "no events" 0 (Obs.event_count obs))

let test_registry_semantics () =
  with_obs ~metrics:true (fun obs ->
      let c = Obs.counter "test_sem_counter" in
      Obs.incr obs c;
      Obs.add obs c 4;
      Alcotest.(check int) "counter accumulates" 5 (Obs.counter_value obs c);
      Alcotest.(check bool) "registration is idempotent" true
        (Obs.counter "test_sem_counter" == c);
      let g = Obs.gauge "test_sem_gauge" in
      Obs.set_gauge obs g 1.5;
      Obs.set_gauge obs g 2.5;
      Alcotest.(check (float 0.)) "gauge keeps the last value" 2.5
        (Obs.gauge_value obs g))

let test_histogram_buckets () =
  with_obs ~metrics:true (fun obs ->
      let h = Obs.histogram "test_hist_buckets" in
      List.iter (Obs.observe_us obs h)
        [ 1; 10; 11; 100; 5_000; 1_000_000; 61_000_000 ];
      let dump = Obs.metrics_dump obs in
      let contains needle =
        let n = String.length needle and l = String.length dump in
        let rec go i = i + n <= l && (String.sub dump i n = needle || go (i + 1)) in
        go 0
      in
      (* a bound is inclusive: 1 -> le1, 10 -> le10, 11 and 100 -> le100;
         61 s is past the last bound (60 s) and overflows *)
      Alcotest.(check bool) "bucket line" true
        (contains
           "histogram test_hist_buckets count 7 sum_us 62005122 le1:1 le10:1 \
            le100:2 le1000:0 le10000:1 le100000:0 le1000000:1 le10000000:0 \
            le60000000:0 inf:1"))

let test_span_clamps_and_balances () =
  with_obs ~tracing:true (fun obs ->
      Obs.span obs ~cat:"test" ~begin_us:100 ~end_us:50 "backwards";
      Alcotest.(check int) "B and E emitted together" 2 (Obs.event_count obs);
      match Json.parse (Obs.trace_json obs) with
      | Error e -> Alcotest.failf "trace does not parse: %s" e
      | Ok doc -> (
          match Json.member "traceEvents" doc with
          | Some (Json.Arr events) ->
              let ts ev =
                match Json.member "ts" ev with
                | Some (Json.Num n) -> int_of_float n
                | _ -> -1
              in
              let spans =
                List.filter
                  (fun ev ->
                    match Json.member "ph" ev with
                    | Some (Json.Str ("B" | "E")) -> true
                    | _ -> false)
                  events
              in
              Alcotest.(check (list int)) "end clamped to begin" [ 100; 100 ]
                (List.map ts spans)
          | _ -> Alcotest.fail "missing traceEvents"))

(* --- golden test: a full quickstart run with observability on --- *)

let quickstart_run () =
  let b = Artemis_faultsim.Scenario.quickstart.Artemis_faultsim.Scenario.build ~engine:None ~seed:42 in
  Runtime.run ~config:b.Artemis_faultsim.Scenario.config
    b.Artemis_faultsim.Scenario.device b.Artemis_faultsim.Scenario.app
    b.Artemis_faultsim.Scenario.suite

let test_quickstart_trace_is_valid_and_balanced () =
  with_obs ~metrics:true ~tracing:true (fun obs ->
      let _stats = quickstart_run () in
      let text = Obs.trace_json obs in
      match Json.parse text with
      | Error e -> Alcotest.failf "trace does not parse: %s" e
      | Ok doc -> (
          match Json.member "traceEvents" doc with
          | Some (Json.Arr events) ->
              Alcotest.(check bool) "has events" true (List.length events > 10);
              (* per-track B/E balance walk in emission order *)
              let depth = Hashtbl.create 8 in
              List.iter
                (fun ev ->
                  let tid =
                    match Json.member "tid" ev with
                    | Some (Json.Num n) -> int_of_float n
                    | _ -> 0
                  in
                  let d = try Hashtbl.find depth tid with Not_found -> 0 in
                  match Json.member "ph" ev with
                  | Some (Json.Str "B") -> Hashtbl.replace depth tid (d + 1)
                  | Some (Json.Str "E") ->
                      if d = 0 then Alcotest.failf "E without B on tid %d" tid;
                      Hashtbl.replace depth tid (d - 1)
                  | _ -> ())
                events;
              Hashtbl.iter
                (fun tid d ->
                  if d <> 0 then Alcotest.failf "%d unclosed B on tid %d" d tid)
                depth;
              (* the doomed transmit scenario browns out: its power
                 failures must appear as instants on the power track *)
              let pf =
                List.filter
                  (fun ev ->
                    Json.member "name" ev = Some (Json.Str "power_failure"))
                  events
              in
              Alcotest.(check bool) "power-failure instants present" true
                (List.length pf > 0)
          | _ -> Alcotest.fail "missing traceEvents"))

let test_quickstart_metrics_reconcile () =
  with_obs ~metrics:true (fun obs ->
      let stats = quickstart_run () in
      (match Export.reconcile_metrics obs stats with
      | [] -> ()
      | mismatches ->
          Alcotest.failf "counters disagree with stats: %s"
            (String.concat ", "
               (List.map
                  (fun (name, expected, got) ->
                    Printf.sprintf "%s stats=%d counter=%d" name expected got)
                  mismatches)));
      (* and the JSON export of the registry parses *)
      match Json.parse (Obs.metrics_json obs) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e)

(* disabled observability leaves different-run stats untouched: the same
   scenario produces the same log digest with and without the layer on *)
let test_observing_does_not_perturb_the_run () =
  let digest_with ~metrics ~tracing =
    with_obs ~metrics ~tracing (fun _obs ->
        let b =
          Artemis_faultsim.Scenario.quickstart.Artemis_faultsim.Scenario.build
            ~engine:None ~seed:7
        in
        ignore
          (Runtime.run ~config:b.Artemis_faultsim.Scenario.config
             b.Artemis_faultsim.Scenario.device b.Artemis_faultsim.Scenario.app
             b.Artemis_faultsim.Scenario.suite);
        Export.log_digest (Device.log b.Artemis_faultsim.Scenario.device))
  in
  let off = digest_with ~metrics:false ~tracing:false in
  let on = digest_with ~metrics:true ~tracing:true in
  Alcotest.(check string) "observability is read-only" off on

let suite =
  [
    Alcotest.test_case "disabled layer is inert" `Quick test_disabled_is_inert;
    Alcotest.test_case "registry semantics" `Quick test_registry_semantics;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "span clamps and balances" `Quick
      test_span_clamps_and_balances;
    Alcotest.test_case "quickstart trace valid and balanced" `Quick
      test_quickstart_trace_is_valid_and_balanced;
    Alcotest.test_case "quickstart metrics reconcile with stats" `Quick
      test_quickstart_metrics_reconcile;
    Alcotest.test_case "observability does not perturb the run" `Quick
      test_observing_does_not_perturb_the_run;
  ]
