type t = { mutable rev_events : Event.timed list; mutable n : int }

let create () = { rev_events = []; n = 0 }

let record t ~at event =
  t.rev_events <- { Event.at; event } :: t.rev_events;
  t.n <- t.n + 1

let events t = List.rev t.rev_events
let length t = t.n

let count t pred =
  List.fold_left
    (fun acc (e : Event.timed) -> if pred e.event then acc + 1 else acc)
    0 t.rev_events

let find_all t pred =
  List.filter (fun (e : Event.timed) -> pred e.event) (events t)

let task_attempts t ~task =
  count t (function
    | Event.Task_started { task = tk; _ } -> String.equal tk task
    | _ -> false)

let render_timeline ?limit t =
  let shown =
    match limit with
    | None -> t.n
    | Some l when l < 0 ->
        invalid_arg (Printf.sprintf "Log.render_timeline: negative limit %d" l)
    | Some l -> min l t.n
  in
  (* sized for ~48-byte lines, so a short timeline never regrows *)
  let buf = Buffer.create (48 * (shown + 1)) in
  let rec lines i = function
    | e :: rest when i < shown ->
        if i > 0 then Buffer.add_char buf '\n';
        Event.render_timed buf e;
        lines (i + 1) rest
    | _ -> ()
  in
  lines 0 (events t);
  if t.n > shown then begin
    if shown > 0 then Buffer.add_char buf '\n';
    Printf.bprintf buf "... (%d more events)" (t.n - shown)
  end;
  Buffer.contents buf
