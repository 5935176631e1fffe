(* Raw-loop engine profiler: the bechamel suite in [main] is the number
   of record, but its statistical machinery is too slow for iterating on
   the engines' hot paths.  This binary times the same fsm-step kernels
   with plain counted loops (warmup + wall clock), plus the isolated
   miss/hit micro-kernels that localise a regression to the dispatch or
   the fire path, and the deploy-time costs every scenario build pays
   (typecheck, lowering, suite deployment).  Usage:
   dune exec bench/profile.exe *)
open Artemis_experiments
module A = Artemis
module Interp = A.Fsm.Interp
module Table = A.Fsm.Table

let kernel_trace =
  let tasks =
    [ "bodyTemp"; "calcAvg"; "heartRate"; "accel"; "classify"; "micSense";
      "filter"; "send" ]
  in
  List.concat
    (List.mapi
       (fun i task ->
         let ts n = A.Time.of_ms (200 * ((2 * i) + n)) in
         [
           { Interp.kind = Interp.Start; task; timestamp = ts 0; path = 1;
             dep_data = []; energy_mj = 20. };
           { Interp.kind = Interp.End; task; timestamp = ts 1; path = 1;
             dep_data = [ ("avgTemp", 36.5) ]; energy_mj = 19. };
         ])
       tasks)

let time name iters f =
  for _ = 1 to 1000 do f () done;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do f () done;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "%-26s %8.0f ns/iter\n%!" name (dt /. float_of_int iters *. 1e9)

let () =
  let machines = Scalability.replicated_machines 1 in
  let tables = List.map Table.compile machines in
  let machines_a = Array.of_list machines in
  let tables_a = Array.of_list tables in
  let istores_a = Array.of_list (List.map Interp.memory_store machines) in
  let tinsts_a = Array.of_list (List.map Table.instance tables) in
  let trace = Array.of_list kernel_trace in
  let nm = Array.length machines_a in
  let interp () =
    for e = 0 to Array.length trace - 1 do
      let ev = trace.(e) in
      for j = 0 to nm - 1 do
        ignore (Interp.step machines_a.(j) istores_a.(j) ev)
      done
    done
  in
  let tbl () =
    for e = 0 to Array.length trace - 1 do
      let ev = trace.(e) in
      for j = 0 to nm - 1 do
        ignore (Table.step tables_a.(j) tinsts_a.(j) ev)
      done
    done
  in
  let n = 200_000 in
  (* per-machine cost over the full trace: which property pattern regressed? *)
  Array.iteri
    (fun j (m : A.Fsm.Ast.machine) ->
      let t = tables_a.(j) and ti = tinsts_a.(j) in
      time
        (Printf.sprintf "T %s" m.A.Fsm.Ast.machine_name)
        n
        (fun () ->
          for e = 0 to Array.length trace - 1 do
            ignore (Table.step t ti trace.(e))
          done))
    machines_a;
  (* the bechamel kernels, twice each to expose drift *)
  time "fsm-step-interpreted" n interp;
  time "fsm-step-table" n tbl;
  time "fsm-step-interpreted(2)" n interp;
  time "fsm-step-table(2)" n tbl;
  (* dispatch cost in isolation: an event no machine watches *)
  let miss_ev =
    { Interp.kind = Interp.Start; task = "nosuchtask"; timestamp = A.Time.of_ms 1;
      path = 1; dep_data = []; energy_mj = 20. }
  in
  time "miss-table" (n * 10) (fun () ->
      for j = 0 to nm - 1 do
        ignore (Table.step tables_a.(j) tinsts_a.(j) miss_ev)
      done);
  (* fire cost in isolation: a start/end pair that always transitions *)
  let pick name =
    let rec go j =
      if j >= nm then invalid_arg name
      else if String.equal machines_a.(j).A.Fsm.Ast.machine_name name then j
      else go (j + 1)
    in
    go 0
  in
  let j = pick "maxTries_accel" in
  let t_mt = tables_a.(j) and i_mt = tinsts_a.(j) in
  let hit_s =
    { Interp.kind = Interp.Start; task = "accel"; timestamp = A.Time.of_ms 1;
      path = 1; dep_data = []; energy_mj = 20. }
  in
  let hit_e = { hit_s with Interp.kind = Interp.End } in
  time "hit-pair-table" (n * 10) (fun () ->
      ignore (Table.step t_mt i_mt hit_s);
      ignore (Table.step t_mt i_mt hit_e));
  (* deploy cost over the health benchmark's properties: typecheck alone,
     the one lowering, and a whole suite deployment on fresh NVM *)
  let health =
    let app, _ = A.Health_app.make (A.Nvm.create ()) in
    A.compile_exn ~app A.Health_app.spec_text
  in
  time "typecheck-health" (n / 10) (fun () ->
      List.iter A.Fsm.Typecheck.check_exn health);
  time "lower-health" (n / 10) (fun () ->
      List.iter (fun m -> ignore (Table.compile m)) health);
  time "deploy-health" (n / 10) (fun () ->
      ignore (A.Suite.create (A.Nvm.create ()) health))
