open Artemis
module Par = Artemis_util.Par

type row = {
  copies : int;
  monitors : int;
  monitor_ms : float;
  app_s : float;
  monitor_fram : int;
}

(* k independent copies of the benchmark's machines; each copy is renamed
   so its FRAM cells are distinct, but checks the same events. *)
let replicated_machines k =
  let base = To_fsm.spec (Spec.Parser.parse_exn Health_app.spec_text) in
  List.concat_map
    (fun i ->
      List.map
        (fun (m : Fsm.Ast.machine) ->
          if i = 0 then m
          else
            { m with Fsm.Ast.machine_name = Printf.sprintf "%s_copy%d" m.Fsm.Ast.machine_name i })
        base)
    (List.init k Fun.id)

let run_with_copies copies =
  let device = Config.device Config.Continuous in
  let app, _ = Health_app.make (Device.nvm device) in
  let machines = replicated_machines copies in
  let suite = deploy device machines in
  let stats = Runtime.run device app suite in
  {
    copies;
    monitors = List.length machines;
    monitor_ms = Time.to_ms_f stats.Stats.monitor_overhead;
    app_s = Time.to_sec_f stats.Stats.app_time;
    monitor_fram = Nvm.footprint (Device.nvm device) ~kind:Nvm.Fram ~region:Nvm.Monitor;
  }

let run ?(factors = [ 1; 2; 4; 8 ]) ?(jobs = 1) () =
  Par.map_list ~jobs run_with_copies factors

let render rows =
  let table =
    Table.create
      ~headers:
        [ "property copies"; "monitors"; "monitor overhead (ms)"; "app time (s)"; "monitor FRAM (B)" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.copies;
          string_of_int r.monitors;
          Printf.sprintf "%.2f" r.monitor_ms;
          Printf.sprintf "%.3f" r.app_s;
          string_of_int r.monitor_fram;
        ])
    rows;
  Table.render table

(* --- non-watching properties --- *)

(* A deployed property whose machine names only tasks the application
   never runs: every monitor call steps it, but the runtime charges only
   monitors watching the event's task, so its only cost is FRAM.  This
   is the sweep that charging rule is judged on - monitor overhead must
   stay flat as these are piled on. *)
let non_watching_machine i =
  let task = Printf.sprintf "ghostTask%d" i in
  {
    Fsm.Ast.machine_name = Printf.sprintf "ghost%d" i;
    vars = [ { Fsm.Ast.var_name = "n"; ty = Fsm.Ast.Tint;
               init = Fsm.Ast.Vint 0; persistent = false } ];
    initial = "Idle";
    states =
      [
        {
          Fsm.Ast.state_name = "Idle";
          transitions =
            [
              {
                Fsm.Ast.trigger = Fsm.Ast.On_start task;
                guard = None;
                body = [ Fsm.Ast.Assign ("n", Fsm.Ast.Binop (Fsm.Ast.Add, Fsm.Ast.Var "n", Fsm.Ast.Lit (Fsm.Ast.Vint 1))) ];
                target = "Idle";
              };
            ];
        };
      ];
  }

type non_watching_row = {
  extra : int;  (** non-watching properties deployed on top of the base set *)
  total_monitors : int;
  nw_monitor_ms : float;
  nw_monitor_fram : int;
}

let run_with_extras extra =
  let device = Config.device Config.Continuous in
  let app, _ = Health_app.make (Device.nvm device) in
  let machines =
    replicated_machines 1 @ List.init extra non_watching_machine
  in
  let suite = deploy device machines in
  let stats = Runtime.run device app suite in
  {
    extra;
    total_monitors = List.length machines;
    nw_monitor_ms = Time.to_ms_f stats.Stats.monitor_overhead;
    nw_monitor_fram =
      Nvm.footprint (Device.nvm device) ~kind:Nvm.Fram ~region:Nvm.Monitor;
  }

let run_non_watching ?(extras = [ 0; 8; 32; 128 ]) ?(jobs = 1) () =
  Par.map_list ~jobs run_with_extras extras

let render_non_watching rows =
  let table =
    Table.create
      ~headers:
        [ "non-watching extras"; "monitors"; "monitor overhead (ms)"; "monitor FRAM (B)" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.extra;
          string_of_int r.total_monitors;
          Printf.sprintf "%.2f" r.nw_monitor_ms;
          string_of_int r.nw_monitor_fram;
        ])
    rows;
  Table.render table
