open Artemis_util
module S = Artemis_spec.Ast
module F = Artemis_fsm.Ast

type options = { collect_reset_on_fail : bool }

let default_options = { collect_reset_on_fail = false }

(* Conjoin the [path == p] filter of a Path-qualified property. *)
let with_path_filter path guard =
  match path with
  | None -> guard
  | Some p ->
      let filter = F.Binop (F.Eq, F.Event_path, F.Lit (F.Vint p)) in
      (match guard with
      | None -> Some filter
      | Some g -> Some (F.Binop (F.And, filter, g)))

let int_lit n = F.Lit (F.Vint n)
let time_lit t = F.Lit (F.Vtime t)
let ivar name = F.Var name

let fail act path = F.Fail (act, path)

(* Figure 7, first machine. *)
let max_tries ~task ~name ~n ~on_fail ~path =
  let start_guard g = with_path_filter path g in
  {
    F.machine_name = name;
    vars = [ { F.var_name = "i"; ty = F.Tint; init = F.Vint 0; persistent = false } ];
    initial = "NotStarted";
    states =
      [
        {
          F.state_name = "NotStarted";
          transitions =
            [
              {
                F.trigger = F.On_start task;
                guard = start_guard None;
                body = [ F.Assign ("i", int_lit 1) ];
                target = "Started";
              };
            ];
        };
        {
          F.state_name = "Started";
          transitions =
            [
              {
                F.trigger = F.On_start task;
                guard = start_guard (Some (F.Binop (F.Lt, ivar "i", int_lit n)));
                body = [ F.Assign ("i", F.Binop (F.Add, ivar "i", int_lit 1)) ];
                target = "Started";
              };
              {
                F.trigger = F.On_start task;
                guard = start_guard (Some (F.Binop (F.Ge, ivar "i", int_lit n)));
                body = [ fail on_fail path; F.Assign ("i", int_lit 0) ];
                target = "NotStarted";
              };
              {
                F.trigger = F.On_end task;
                guard = None;
                body = [ F.Assign ("i", int_lit 0) ];
                target = "NotStarted";
              };
            ];
        };
      ];
  }

(* Figure 7, second machine.  In [Started], re-delivered start events hit
   the implicit self-transition, so [start] keeps the first attempt's
   timestamp (Section 4.1.3). *)
let max_duration ~task ~name ~limit ~on_fail ~path =
  let elapsed = F.Binop (F.Sub, F.Timestamp, ivar "start") in
  {
    F.machine_name = name;
    vars =
      [
        {
          F.var_name = "start";
          ty = F.Ttime;
          init = F.Vtime Time.zero;
          persistent = false;
        };
      ];
    initial = "NotStarted";
    states =
      [
        {
          F.state_name = "NotStarted";
          transitions =
            [
              {
                F.trigger = F.On_start task;
                guard = with_path_filter path None;
                body = [ F.Assign ("start", F.Timestamp) ];
                target = "Started";
              };
            ];
        };
        {
          F.state_name = "Started";
          transitions =
            [
              {
                F.trigger = F.On_end task;
                guard = Some (F.Binop (F.Le, elapsed, time_lit limit));
                body = [];
                target = "NotStarted";
              };
              {
                F.trigger = F.On_any;
                guard = Some (F.Binop (F.Gt, elapsed, time_lit limit));
                body = [ fail on_fail path ];
                target = "NotStarted";
              };
            ];
        };
      ];
  }

(* Figure 7, third machine, with the accumulate-across-restarts default
   (DESIGN.md decision 1).  The [Consumed] state absorbs re-delivered
   start events so one successful check is not double-consumed. *)
let collect ~options ~task ~name ~n ~dp_task ~on_fail ~path =
  let fail_body =
    if options.collect_reset_on_fail then
      [ fail on_fail path; F.Assign ("i", int_lit 0) ]
    else [ fail on_fail path ]
  in
  {
    F.machine_name = name;
    vars =
      [
        {
          F.var_name = "i";
          ty = F.Tint;
          init = F.Vint 0;
          persistent = not options.collect_reset_on_fail;
        };
      ];
    initial = "Counting";
    states =
      [
        {
          F.state_name = "Counting";
          transitions =
            [
              {
                F.trigger = F.On_end dp_task;
                guard = None;
                body = [ F.Assign ("i", F.Binop (F.Add, ivar "i", int_lit 1)) ];
                target = "Counting";
              };
              {
                F.trigger = F.On_start task;
                guard =
                  with_path_filter path (Some (F.Binop (F.Ge, ivar "i", int_lit n)));
                body = [ F.Assign ("i", F.Binop (F.Sub, ivar "i", int_lit n)) ];
                target = "Consumed";
              };
              {
                F.trigger = F.On_start task;
                guard =
                  with_path_filter path (Some (F.Binop (F.Lt, ivar "i", int_lit n)));
                body = fail_body;
                target = "Counting";
              };
            ];
        };
        {
          F.state_name = "Consumed";
          transitions =
            [
              {
                F.trigger = F.On_end task;
                guard = None;
                body = [];
                target = "Counting";
              };
              {
                F.trigger = F.On_end dp_task;
                guard = None;
                body = [ F.Assign ("i", F.Binop (F.Add, ivar "i", int_lit 1)) ];
                target = "Consumed";
              };
            ];
        };
      ];
  }

(* maxAttempt, lowered once for MITD and period: the late-start
   transitions into [target], each body closed by [extra].  Without
   maxAttempt a late start raises [on_fail]; with maxAttempt m a
   persistent [attempts] counter (returned as the extra variable) lets
   the first m-1 raise [on_fail] and the m-th raise the exhausted
   action, resetting the count. *)
let late_starts ~task ~late ~on_fail ~max_attempt ~path ~target ~extra =
  let start guard body =
    {
      F.trigger = F.On_start task;
      guard = with_path_filter path (Some guard);
      body = body @ extra;
      target;
    }
  in
  match max_attempt with
  | None -> ([], [ start late [ fail on_fail path ] ])
  | Some { S.attempts = m; exhausted } ->
      let attempts cmp =
        F.Binop (F.And, late, F.Binop (cmp, ivar "attempts", int_lit (m - 1)))
      in
      ( [ { F.var_name = "attempts"; ty = F.Tint; init = F.Vint 0;
            persistent = true } ],
        [
          start (attempts F.Lt)
            [
              F.Assign ("attempts", F.Binop (F.Add, ivar "attempts", int_lit 1));
              fail on_fail path;
            ];
          start (attempts F.Ge)
            [ F.Assign ("attempts", int_lit 0); fail exhausted path ];
        ] )

(* Figure 7, fourth machine, with [late_starts]' maxAttempt; an on-time
   start resets the attempt count. *)
let mitd ~task ~name ~limit ~dp_task ~on_fail ~max_attempt ~path =
  let elapsed = F.Binop (F.Sub, F.Timestamp, ivar "endB") in
  let on_time = F.Binop (F.Le, elapsed, time_lit limit) in
  let late = F.Binop (F.Gt, elapsed, time_lit limit) in
  let attempt_vars, violations =
    late_starts ~task ~late ~on_fail ~max_attempt ~path ~target:"WaitEndB"
      ~extra:[]
  in
  let reset_attempts =
    match max_attempt with
    | None -> []
    | Some _ -> [ F.Assign ("attempts", int_lit 0) ]
  in
  {
    F.machine_name = name;
    vars =
      {
        F.var_name = "endB";
        ty = F.Ttime;
        init = F.Vtime Time.zero;
        persistent = false;
      }
      :: attempt_vars;
    initial = "WaitEndB";
    states =
      [
        {
          F.state_name = "WaitEndB";
          transitions =
            [
              {
                F.trigger = F.On_end dp_task;
                guard = None;
                body = [ F.Assign ("endB", F.Timestamp) ];
                target = "WaitStartA";
              };
            ];
        };
        {
          F.state_name = "WaitStartA";
          transitions =
            ({
               F.trigger = F.On_start task;
               guard = with_path_filter path (Some on_time);
               body = reset_attempts;
               target = "WaitEndB";
             }
            :: violations)
            @ [
                (* a fresh completion of B re-anchors the window *)
                {
                  F.trigger = F.On_end dp_task;
                  guard = None;
                  body = [ F.Assign ("endB", F.Timestamp) ];
                  target = "WaitStartA";
                };
              ];
        };
      ];
  }

(* Periodicity: anchored on the previous instance's start; power-failure
   re-starts are absorbed in [Running].  Late starts re-anchor too. *)
let period ~task ~name ~interval ~on_fail ~max_attempt ~path =
  let elapsed = F.Binop (F.Sub, F.Timestamp, ivar "last") in
  let on_time = F.Binop (F.Le, elapsed, time_lit interval) in
  let late = F.Binop (F.Gt, elapsed, time_lit interval) in
  let anchor = F.Assign ("last", F.Timestamp) in
  let attempt_vars, violations =
    late_starts ~task ~late ~on_fail ~max_attempt ~path ~target:"Running"
      ~extra:[ anchor ]
  in
  {
    F.machine_name = name;
    vars =
      {
        F.var_name = "last";
        ty = F.Ttime;
        init = F.Vtime Time.zero;
        persistent = false;
      }
      :: attempt_vars;
    initial = "First";
    states =
      [
        {
          F.state_name = "First";
          transitions =
            [
              {
                F.trigger = F.On_start task;
                guard = with_path_filter path None;
                body = [ anchor ];
                target = "Running";
              };
            ];
        };
        {
          F.state_name = "Running";
          transitions =
            [
              { F.trigger = F.On_end task; guard = None; body = []; target = "Await" };
            ];
        };
        {
          F.state_name = "Await";
          transitions =
            {
              F.trigger = F.On_start task;
              guard = with_path_filter path (Some on_time);
              body = [ anchor ];
              target = "Running";
            }
            :: violations;
        };
      ];
  }

(* Range check over a monitored task variable, at task completion. *)
let dp_data ~task ~name ~var ~low ~high ~on_fail ~path =
  let out_of_range =
    F.Binop
      ( F.Or,
        F.Binop (F.Lt, F.Dep_data var, F.Lit (F.Vfloat low)),
        F.Binop (F.Gt, F.Dep_data var, F.Lit (F.Vfloat high)) )
  in
  {
    F.machine_name = name;
    vars = [];
    initial = "Watching";
    states =
      [
        {
          F.state_name = "Watching";
          transitions =
            [
              {
                F.trigger = F.On_end task;
                guard = with_path_filter path (Some out_of_range);
                body = [ fail on_fail path ];
                target = "Watching";
              };
            ];
        };
      ];
  }

(* Section 4.2.2 extension: pre-execution energy check via the runtime's
   capacitor-level primitive. *)
let min_energy ~task ~name ~uj ~on_fail ~path =
  let below =
    F.Binop (F.Lt, F.Energy_level, F.Lit (F.Vfloat (uj /. 1e3) (* mJ *)))
  in
  {
    F.machine_name = name;
    vars = [];
    initial = "Watching";
    states =
      [
        {
          F.state_name = "Watching";
          transitions =
            [
              {
                F.trigger = F.On_start task;
                guard = with_path_filter path (Some below);
                body = [ fail on_fail path ];
                target = "Watching";
              };
            ];
        };
      ];
  }

let property ?(options = default_options) ~task ~name (p : S.property) =
  match p with
  | S.Max_tries { n; on_fail; path } -> max_tries ~task ~name ~n ~on_fail ~path
  | S.Max_duration { limit; on_fail; path } ->
      max_duration ~task ~name ~limit ~on_fail ~path
  | S.Collect { n; dp_task; on_fail; path } ->
      collect ~options ~task ~name ~n ~dp_task ~on_fail ~path
  | S.Mitd { limit; dp_task; on_fail; max_attempt; path } ->
      mitd ~task ~name ~limit ~dp_task ~on_fail ~max_attempt ~path
  | S.Period { interval; on_fail; max_attempt; path } ->
      period ~task ~name ~interval ~on_fail ~max_attempt ~path
  | S.Dp_data { var; low; high; on_fail; path } ->
      dp_data ~task ~name ~var ~low ~high ~on_fail ~path
  | S.Min_energy { uj; on_fail; path } ->
      min_energy ~task ~name ~uj ~on_fail ~path

let base_name ~task (p : S.property) =
  match p with
  | S.Max_tries _ -> Printf.sprintf "maxTries_%s" task
  | S.Max_duration _ -> Printf.sprintf "maxDuration_%s" task
  | S.Collect { dp_task; _ } -> Printf.sprintf "collect_%s_%s" task dp_task
  | S.Mitd { dp_task; _ } -> Printf.sprintf "MITD_%s_%s" task dp_task
  | S.Period _ -> Printf.sprintf "period_%s" task
  | S.Dp_data { var; _ } -> Printf.sprintf "dpData_%s_%s" task var
  | S.Min_energy _ -> Printf.sprintf "minEnergy_%s" task

let spec ?(options = default_options) blocks =
  let used = Hashtbl.create 16 in
  let unique name =
    if not (Hashtbl.mem used name) then begin
      Hashtbl.add used name ();
      name
    end
    else
      let rec next i =
        let candidate = Printf.sprintf "%s_%d" name i in
        if Hashtbl.mem used candidate then next (i + 1)
        else begin
          Hashtbl.add used candidate ();
          candidate
        end
      in
      next 2
  in
  List.concat_map
    (fun { S.task; properties } ->
      List.map
        (fun p ->
          let name = unique (base_name ~task p) in
          property ~options ~task ~name p)
        properties)
    blocks
