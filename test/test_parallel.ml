(* The domain-parallel campaign runner: the parallel map itself, the
   jobs-count-invariance of campaign reports (QCheck property: --jobs 1
   and --jobs 4 produce byte-identical JSON and merged traces), and
   cross-domain isolation of Obs contexts. *)

open Artemis
module F = Artemis_faultsim.Faultsim
module Scenario = Artemis_faultsim.Scenario
module Par = Artemis_util.Par

(* --- Par.map --- *)

let test_par_map_order () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let got = Par.map ~jobs n (fun i -> i * i) in
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d n=%d" jobs n)
            (Array.init n (fun i -> i * i))
            got)
        [ 0; 1; 2; 7; 64 ])
    [ 1; 2; 4; 9 ]

let test_par_map_list () =
  let xs = [ "a"; "b"; "c"; "d"; "e" ] in
  Alcotest.(check (list string))
    "map_list preserves order"
    (List.map String.uppercase_ascii xs)
    (Par.map_list ~jobs:4 String.uppercase_ascii xs)

let test_par_map_validates () =
  Alcotest.check_raises "jobs=0" (Invalid_argument "Par.map: jobs must be >= 1")
    (fun () -> ignore (Par.map ~jobs:0 3 Fun.id))

exception Boom of int

let test_par_map_propagates_exn () =
  List.iter
    (fun jobs ->
      match Par.map ~jobs 32 (fun i -> if i = 17 then raise (Boom i) else i) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 17 -> ())
    [ 1; 4 ]

(* every spawned worker domain starts with its own quiet Obs context;
   items that land on the calling domain (always possible - worker 0
   runs there, and the PR 8 core cap may run the whole map inline) share
   the caller's context, which is why recording mapped code must isolate
   itself explicitly (next test) *)
let test_par_map_worker_ctx_isolated () =
  let parent = Obs.current () in
  let before = Obs.event_count parent in
  let ctxs =
    Par.map ~jobs:4 8 (fun i ->
        let ctx = Obs.current () in
        if ctx != parent then begin
          Obs.set_tracing ctx true;
          Obs.instant ctx ~cat:"test" ~ts:i "tick"
        end;
        ctx)
  in
  Alcotest.(check int) "parent ctx untouched" before
    (Obs.event_count parent);
  Array.iter
    (fun ctx ->
      Alcotest.(check bool) "worker recorded into its own ctx" true
        (ctx == parent || Obs.event_count ctx >= 1))
    ctxs

(* the isolation pattern [Obs.par_map] uses for recording callers: an
   explicit per-item context under [with_ctx] keeps the parent byte
   clean for every jobs value, even when the map runs inline *)
let test_par_map_explicit_isolation () =
  let parent = Obs.current () in
  let before = Obs.event_count parent in
  let ctxs =
    Par.map ~jobs:4 8 (fun i ->
        let ctx = Obs.create () in
        Obs.set_tracing ctx true;
        Obs.with_ctx ctx (fun () ->
            Obs.instant (Obs.current ()) ~cat:"test" ~ts:i "tick");
        ctx)
  in
  Alcotest.(check int) "parent ctx untouched" before
    (Obs.event_count parent);
  Array.iter
    (fun ctx ->
      Alcotest.(check int) "each item recorded into its own ctx" 1
        (Obs.event_count ctx))
    ctxs

(* --- Obs: two domains recording concurrently never interleave --- *)

let digest_of_ctx ctx = Digest.to_hex (Digest.string (Obs.trace_json ctx))

(* Record [n] instants through the ctx clock (ts = base + clock), the
   same path device-driven events take. *)
let record_burst ctx label n =
  Obs.set_tracing ctx true;
  let t = ref 0 in
  Obs.set_clock ctx (fun () -> !t);
  for i = 1 to n do
    t := i;
    Obs.instant ctx ~cat:label (Printf.sprintf "%s-%d" label i)
  done;
  ctx

let test_obs_two_domain_isolation () =
  (* expected digests from sequential, single-domain recording *)
  let expect_a = digest_of_ctx (record_burst (Obs.create ()) "alpha" 500) in
  let expect_b = digest_of_ctx (record_burst (Obs.create ()) "beta" 500) in
  for _round = 1 to 5 do
    let a = Obs.create () and b = Obs.create () in
    let da =
      Domain.spawn (fun () -> ignore (record_burst a "alpha" 500))
    in
    let db =
      Domain.spawn (fun () -> ignore (record_burst b "beta" 500))
    in
    Domain.join da;
    Domain.join db;
    Alcotest.(check string) "ctx a digest" expect_a (digest_of_ctx a);
    Alcotest.(check string) "ctx b digest" expect_b (digest_of_ctx b)
  done

(* absorbing per-run contexts in run order reproduces the sequential
   timeline: interleaved two-context recording merged with absorb equals
   recording both bursts into one context back to back *)
let test_obs_absorb_stitches () =
  let seq = Obs.create () in
  ignore (record_burst seq "alpha" 50);
  Obs.set_base seq 1_000;
  ignore (record_burst seq "beta" 50);
  Obs.set_base seq 2_000;
  let a = record_burst (Obs.create ()) "alpha" 50 in
  Obs.set_base a 1_000;
  let b = record_burst (Obs.create ()) "beta" 50 in
  Obs.set_base b 1_000;
  let merged = Obs.create () in
  Obs.set_tracing merged true;
  Obs.absorb ~into:merged a;
  Obs.absorb ~into:merged b;
  (* the absorbs advanced [merged]'s base as far as [seq]'s: one more
     burst lands at the same instants on both *)
  ignore (record_burst seq "gamma" 50);
  ignore (record_burst merged "gamma" 50);
  Alcotest.(check string) "merged timeline = sequential timeline"
    (Obs.trace_json seq) (Obs.trace_json merged)

(* --- campaign determinism: jobs must never change the report --- *)

let campaign_gen =
  QCheck.make
    ~print:(fun (scenario, depth, seed) ->
      Printf.sprintf "(%s, depth=%d, seed=%d)" scenario.Scenario.name depth
        seed)
    QCheck.Gen.(
      let* scenario = oneofl [ Scenario.quickstart; Scenario.quickstart_adapt ] in
      let* depth = 1 -- 2 in
      let* seed = 0 -- 1000 in
      return (scenario, depth, seed))

let exhaustive_jobs_invariant =
  QCheck.Test.make ~name:"exhaustive report is jobs-invariant" ~count:4
    campaign_gen (fun (scenario, depth, seed) ->
      let run jobs =
        let ctx = Obs.create () in
        Obs.set_tracing ctx true;
        let json =
          Obs.with_ctx ctx (fun () ->
              F.campaign_to_json (F.exhaustive scenario ~seed ~depth ~jobs))
        in
        (json, Obs.trace_json ctx)
      in
      let json1, trace1 = run 1 in
      let json4, trace4 = run 4 in
      String.equal json1 json4 && String.equal trace1 trace4)

let random_jobs_invariant =
  QCheck.Test.make ~name:"random campaign report is jobs-invariant" ~count:4
    campaign_gen (fun (scenario, _depth, seed) ->
      let run jobs =
        F.campaign_to_json
          (F.random_campaign scenario ~seed ~runs:20 ~max_depth:3 ~jobs)
      in
      String.equal (run 1) (run 4))

(* results land at their input index whichever worker claims them *)
let jobs_invariant =
  QCheck.Test.make ~name:"Par.map = Array.init for any n and jobs" ~count:100
    QCheck.(
      make
        ~print:(fun (n, jobs) -> Printf.sprintf "(n=%d, jobs=%d)" n jobs)
        Gen.(
          let* n = 0 -- 200 in
          let* jobs = 1 -- 9 in
          return (n, jobs)))
    (fun (n, jobs) ->
      Par.map ~jobs n (fun i -> (i * 7) mod 13)
      = Array.init n (fun i -> (i * 7) mod 13))

let suite =
  [
    ("Par.map: input order, any jobs/n", `Quick, test_par_map_order);
    ("Par.map_list: order preserved", `Quick, test_par_map_list);
    ("Par.map: rejects jobs < 1", `Quick, test_par_map_validates);
    ("Par.map: first exception propagates", `Quick, test_par_map_propagates_exn);
    ("Par.map: worker Obs contexts are private", `Quick,
      test_par_map_worker_ctx_isolated);
    ("Par.map: explicit per-item ctx isolation", `Quick,
      test_par_map_explicit_isolation);
    ("Obs: two domains record without interleaving", `Quick,
      test_obs_two_domain_isolation);
    ("Obs: absorb stitches the sequential timeline", `Quick,
      test_obs_absorb_stitches);
    QCheck_alcotest.to_alcotest exhaustive_jobs_invariant;
    QCheck_alcotest.to_alcotest random_jobs_invariant;
    QCheck_alcotest.to_alcotest jobs_invariant;
  ]
