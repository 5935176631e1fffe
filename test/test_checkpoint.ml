open Artemis
module Cp = Checkpoint

let seg ?freshness ?body ?(ms = 100) ?(mw = 2.) name =
  Cp.segment ~name ~duration:(Time.of_ms ms) ~power:(Energy.mw mw) ?body
    ?freshness ()

let program ?(name = "prog") segments = { Cp.program_name = name; segments }

let test_validate () =
  let ok p = Alcotest.(check bool) "valid" true (Cp.validate p = Ok ()) in
  let bad p = Alcotest.(check bool) "invalid" true (Result.is_error (Cp.validate p)) in
  ok (program [ seg "a"; seg "b" ]);
  bad (program []);
  bad (program [ seg "a"; seg "a" ]);
  (* freshness producer must precede the consumer *)
  bad
    (program
       [ seg "a"
           ~freshness:
             { Cp.data_from = "b"; within = Time.of_sec 1; on_expire = Cp.Skip_segment };
         seg "b" ]);
  bad
    (program
       [ seg "a"
           ~freshness:
             { Cp.data_from = "ghost"; within = Time.of_sec 1; on_expire = Cp.Skip_segment } ]);
  (* restart targets cannot jump forward *)
  bad
    (program
       [ seg "a";
         seg "b"
           ~freshness:
             { Cp.data_from = "a"; within = Time.of_sec 1; on_expire = Cp.Restart_from "c" };
         seg "c" ]);
  ok
    (program
       [ seg "a";
         seg "b"
           ~freshness:
             { Cp.data_from = "a"; within = Time.of_sec 1; on_expire = Cp.Restart_from "a" } ])

let test_runs_to_completion () =
  let device = Helpers.powered_device () in
  let nvm = Device.nvm device in
  let out = Channel.create nvm ~name:"out" ~bytes_per_item:4 ~capacity:8 in
  let p =
    program
      [
        seg "a" ~body:(fun _ -> Channel.push out 1);
        seg "b" ~body:(fun _ -> Channel.push out 2);
        seg "c" ~body:(fun _ -> Channel.push out 3);
      ]
  in
  let stats = Cp.run device p in
  Alcotest.(check bool) "completed" true (Helpers.completed stats);
  Alcotest.(check (list int)) "segments in order, once each" [ 1; 2; 3 ]
    (Channel.items out);
  (* checkpoint + restore costs accounted as runtime work *)
  Alcotest.(check bool) "runtime overhead charged" true
    Time.(stats.Stats.runtime_overhead > Time.zero)

let test_resumes_from_last_checkpoint () =
  let device = Helpers.powered_device () in
  let nvm = Device.nvm device in
  let out = Channel.create nvm ~name:"out" ~bytes_per_item:4 ~capacity:8 in
  let p =
    program
      [
        seg "a" ~body:(fun _ -> Channel.push out 1);
        seg "b" ~body:(fun _ -> Channel.push out 2);
      ]
  in
  (* interrupt segment b mid-flight: a must NOT re-run (checkpointed) *)
  Device.schedule_failure device ~at:(Time.of_ms 150);
  let stats = Cp.run device p in
  Alcotest.(check bool) "completed" true (Helpers.completed stats);
  Alcotest.(check (list int)) "a ran once, b's partial try rolled back" [ 1; 2 ]
    (Channel.items out);
  Alcotest.(check int) "b started twice" 2
    (Helpers.count_events device (function
      | Event.Task_started { task = "b"; _ } -> true
      | _ -> false));
  Alcotest.(check int) "a started once" 1
    (Helpers.count_events device (function
      | Event.Task_started { task = "a"; _ } -> true
      | _ -> false))

let fresh_program () =
  program
    [
      seg "sense" ~ms:100;
      seg "proc" ~ms:50;
      seg "send" ~ms:80
        ~freshness:
          { Cp.data_from = "sense"; within = Time.of_sec 2; on_expire = Cp.Restart_from "sense" };
    ]

let test_fresh_data_passes () =
  let device = Helpers.powered_device () in
  let stats = Cp.run device (fresh_program ()) in
  Alcotest.(check bool) "completed" true (Helpers.completed stats);
  Alcotest.(check int) "no expiration restarts" 0 stats.Stats.path_restarts

let test_expiration_restarts_from_producer () =
  (* plenty of energy, but a 30 s charging delay when a failure is
     injected right before send: on resume the sense data is 30 s old,
     far beyond the 2 s window *)
  let device = Helpers.tiny_device ~usable_mj:1000. ~delay:(Time.of_sec 30) () in
  Device.schedule_failure device ~at:(Time.of_ms 160);
  let stats = Cp.run device (fresh_program ()) in
  Alcotest.(check bool) "completed" true (Helpers.completed stats);
  Alcotest.(check bool) "expired at least once" true (stats.Stats.path_restarts >= 1);
  (* sense re-ran to refresh the data *)
  Alcotest.(check bool) "sense re-executed" true
    (Helpers.count_events device (function
       | Event.Task_started { task = "sense"; _ } -> true
       | _ -> false)
    >= 2)

let test_expiration_skip () =
  let device = Helpers.tiny_device ~usable_mj:1000. ~delay:(Time.of_sec 30) () in
  let hit = ref false in
  let p =
    program
      [
        seg "sense" ~ms:100;
        seg "send" ~ms:80
          ~body:(fun _ -> hit := true)
          ~freshness:
            { Cp.data_from = "sense"; within = Time.of_sec 2; on_expire = Cp.Skip_segment };
        seg "tail";
      ]
  in
  (* a failure inside send; the 30 s charging delay blows the window and
     the skip reaction drops the stale consumer *)
  Device.schedule_failure device ~at:(Time.of_ms 120);
  let stats = Cp.run device p in
  Alcotest.(check bool) "completed" true (Helpers.completed stats);
  Alcotest.(check bool) "send skipped" false !hit;
  Alcotest.(check int) "tail still ran" 1
    (Helpers.count_events device (function
      | Event.Task_completed { task = "tail" } -> true
      | _ -> false))

let test_non_termination_without_bounds () =
  (* the TICS/Mayfly failure mode: window < charging delay, and every
     retry browns out again -> restart-from loops forever *)
  let device =
    Helpers.tiny_device ~usable_mj:0.4 ~delay:(Time.of_sec 30)
      ~horizon:(Time.of_min 20) ()
  in
  let p =
    program
      [
        seg "sense" ~ms:100 ~mw:2.;
        (* 0.36 mJ: cannot complete on what a sense pass leaves over *)
        seg "send" ~ms:120 ~mw:3.
          ~freshness:
            { Cp.data_from = "sense"; within = Time.of_sec 5; on_expire = Cp.Restart_from "sense" };
      ]
  in
  let stats = Cp.run device p in
  match stats.Stats.outcome with
  | Stats.Did_not_finish _ -> ()
  | Stats.Completed -> Alcotest.fail "expected non-termination"

let test_snapshot_accounting () =
  let device = Helpers.powered_device () in
  let p =
    program
      [
        Cp.segment ~name:"big" ~duration:(Time.of_ms 10) ~power:(Energy.mw 1.)
          ~snapshot_bytes:200 ();
        Cp.segment ~name:"small" ~duration:(Time.of_ms 10) ~power:(Energy.mw 1.)
          ~snapshot_bytes:30 ();
      ]
  in
  ignore (Cp.run device p);
  (* double-buffered largest snapshot (2 x 200) dominates the footprint *)
  Alcotest.(check bool) "snapshot area accounted" true
    (Runtime.runtime_fram_bytes device >= 400)

let exactly_once_commits_qcheck =
  QCheck.Test.make ~name:"channel items match completed segments under failures"
    ~count:150
    QCheck.(list_of_size (QCheck.Gen.int_range 0 3) (int_range 0 400_000))
    (fun failure_times ->
      let device = Helpers.powered_device () in
      let nvm = Device.nvm device in
      let out = Channel.create nvm ~name:"out" ~bytes_per_item:4 ~capacity:16 in
      List.iter
        (fun us -> Device.schedule_failure device ~at:(Time.of_us us))
        (List.sort_uniq compare failure_times);
      let p =
        program
          [
            seg "a" ~body:(fun _ -> Channel.push out 1);
            seg "b" ~body:(fun _ -> Channel.push out 2);
          ]
      in
      let stats = Cp.run device p in
      Helpers.completed stats && Channel.items out = [ 1; 2 ])

(* PR 10 regression: the WAR-analysis surface deduplicates repeated
   segment names by first appearance, like [Task.bodies] and
   [Ink.bodies].  [validate] rejects such programs, but the analysis
   surface must not depend on validation having run - the pre-fix
   version reported duplicated segments twice, inflating hazard counts
   for exactly the programs most likely to be buggy. *)
let test_bodies_dedup () =
  let hits = ref [] in
  let body tag _ = hits := tag :: !hits in
  let p =
    program
      [ seg "a" ~body:(body "a1"); seg "b" ~body:(body "b");
        seg "a" ~body:(body "a2") ]
  in
  let named = Cp.bodies p in
  Alcotest.(check (list string))
    "each segment name analyzed once" [ "a"; "b" ] (List.map fst named);
  (* first appearance wins, as for every other backend surface *)
  let nvm = Nvm.create () in
  let r = Consistency.War.analyze_bodies nvm named in
  Alcotest.(check (list string))
    "analysis order follows first appearance" [ "a"; "b" ]
    r.Consistency.War.analyzed;
  Alcotest.(check (list string))
    "the first duplicate's body is the one analyzed" [ "a1"; "b" ]
    (List.rev !hits)

let suite =
  [
    Alcotest.test_case "program validation" `Quick test_validate;
    Alcotest.test_case "bodies: duplicate segments analyzed once" `Quick
      test_bodies_dedup;
    Alcotest.test_case "runs to completion" `Quick test_runs_to_completion;
    Alcotest.test_case "resumes from the last checkpoint" `Quick
      test_resumes_from_last_checkpoint;
    Alcotest.test_case "fresh data passes" `Quick test_fresh_data_passes;
    Alcotest.test_case "expiration restarts from the producer" `Quick
      test_expiration_restarts_from_producer;
    Alcotest.test_case "expiration can skip the consumer" `Quick
      test_expiration_skip;
    Alcotest.test_case "non-termination without bounded attempts" `Quick
      test_non_termination_without_bounds;
    Alcotest.test_case "snapshot FRAM accounting" `Quick test_snapshot_accounting;
    QCheck_alcotest.to_alcotest exactly_once_commits_qcheck;
  ]
