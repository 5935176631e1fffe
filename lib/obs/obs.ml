module Json = Artemis_util.Json

(* The registry of metric *handles* (names interned to dense ids) is
   process-global and mutex-protected: instrumented libraries register
   their counters at module-initialisation time, once, from whichever
   domain initialises them.  The *values* live in a context ([t]): a
   record of per-id value arrays, a trace-event buffer and a simulated
   clock.  Contexts are single-owner (one domain at a time, never two
   concurrently); cross-domain aggregation goes through [absorb],
   which [par_map] uses to stitch per-item contexts back into one
   deterministic timeline. *)

type arg = S of string | I of int | F of float

type counter = { c_id : int; c_name : string }
type gauge = { g_id : int; g_name : string }
type histogram = { h_id : int; h_name : string }

let buckets_us =
  [| 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 60_000_000 |]

(* --- handle registry (shared across domains) --- *)

let reg_mu = Mutex.create ()
let counters_reg : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges_reg : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms_reg : (string, histogram) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock reg_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mu) f

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters_reg name with
      | Some c -> c
      | None ->
          let c = { c_id = Hashtbl.length counters_reg; c_name = name } in
          Hashtbl.replace counters_reg name c;
          c)

let gauge name =
  locked (fun () ->
      match Hashtbl.find_opt gauges_reg name with
      | Some g -> g
      | None ->
          let g = { g_id = Hashtbl.length gauges_reg; g_name = name } in
          Hashtbl.replace gauges_reg name g;
          g)

let histogram name =
  locked (fun () ->
      match Hashtbl.find_opt histograms_reg name with
      | Some h -> h
      | None ->
          let h = { h_id = Hashtbl.length histograms_reg; h_name = name } in
          Hashtbl.replace histograms_reg name h;
          h)

let registered tbl =
  locked (fun () -> Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])

(* --- contexts --- *)

type hcell = {
  counts : int array;  (* length buckets + 1 (overflow) *)
  mutable h_count : int;
  mutable h_sum_us : int;
}

type event = {
  ph : char;  (* 'B' | 'E' | 'i' | 'M' *)
  name : string;
  cat : string;
  ts : int;
  tid : int;
  args : (string * arg) list;
}

type t = {
  mutable metrics_on : bool;
  mutable tracing_on : bool;
  mutable clock : unit -> int;
  mutable base_us : int;
  mutable cvals : int array;  (* indexed by counter id *)
  mutable gvals : float array;  (* indexed by gauge id *)
  mutable gwrites : int array;  (* write count per gauge: absorb order *)
  mutable hcells : hcell option array;  (* indexed by histogram id *)
  (* events in reverse emission order; rendered at export time *)
  mutable events : event list;
  mutable n_events : int;
  (* categories get stable track ids in first-use order *)
  tracks : (string, int) Hashtbl.t;
  mutable track_order : string list;  (* reverse first-use order *)
}

let create () =
  let sizes =
    locked (fun () ->
        ( Hashtbl.length counters_reg,
          Hashtbl.length gauges_reg,
          Hashtbl.length histograms_reg ))
  in
  let nc, ng, nh = sizes in
  {
    metrics_on = false;
    tracing_on = false;
    clock = (fun () -> 0);
    base_us = 0;
    cvals = Array.make (max nc 1) 0;
    gvals = Array.make (max ng 1) 0.;
    gwrites = Array.make (max ng 1) 0;
    hcells = Array.make (max nh 1) None;
    events = [];
    n_events = 0;
    tracks = Hashtbl.create 8;
    track_order = [];
  }

(* switches and clock *)

let set_metrics t b = t.metrics_on <- b
let metrics_enabled t = t.metrics_on
let set_tracing t b = t.tracing_on <- b
let tracing_enabled t = t.tracing_on
let set_clock t f = t.clock <- f
let set_base t b = t.base_us <- b
let now_us t = t.base_us + t.clock ()

(* metrics: handles may be registered after a ctx was created, so the
   value arrays grow on first use of a late id (allocation happens once
   per (ctx, handle), never on the steady-state hot path) *)

let grow_int arr id =
  let n = Array.make (max (id + 1) (2 * Array.length arr)) 0 in
  Array.blit arr 0 n 0 (Array.length arr);
  n

let grow_float arr id =
  let n = Array.make (max (id + 1) (2 * Array.length arr)) 0. in
  Array.blit arr 0 n 0 (Array.length arr);
  n

(* [incr]/[add] sit on the per-event monitor path, so the common cases
   must inline into the caller (ocamlopt without flambda only honours
   explicit [@inline] across libraries): metrics off is a load and a
   branch, metrics on is an unsafe in-bounds bump.  Only the
   late-registered-handle case goes out of line to grow the array. *)

let [@inline never] grow_add t c n =
  t.cvals <- grow_int t.cvals c.c_id;
  t.cvals.(c.c_id) <- t.cvals.(c.c_id) + n

let [@inline always] add t c n =
  if t.metrics_on then begin
    let id = c.c_id in
    let arr = t.cvals in
    if id < Array.length arr then
      Array.unsafe_set arr id (Array.unsafe_get arr id + n)
    else grow_add t c n
  end

let [@inline always] incr t c = add t c 1

let counter_value t c =
  if c.c_id < Array.length t.cvals then t.cvals.(c.c_id) else 0

let set_gauge t g v =
  if t.metrics_on then begin
    let id = g.g_id in
    if id >= Array.length t.gvals then begin
      t.gvals <- grow_float t.gvals id;
      t.gwrites <- grow_int t.gwrites id
    end;
    t.gvals.(id) <- v;
    t.gwrites.(id) <- t.gwrites.(id) + 1
  end

let gauge_value t g =
  if g.g_id < Array.length t.gvals then t.gvals.(g.g_id) else 0.

(* every histogram shares [buckets_us], so a cell is found (or made) by
   id alone *)
let hcell t id =
  if id >= Array.length t.hcells then begin
    let n = Array.make (max (id + 1) (2 * Array.length t.hcells)) None in
    Array.blit t.hcells 0 n 0 (Array.length t.hcells);
    t.hcells <- n
  end;
  match t.hcells.(id) with
  | Some cell -> cell
  | None ->
      let cell =
        { counts = Array.make (Array.length buckets_us + 1) 0;
          h_count = 0; h_sum_us = 0 }
      in
      t.hcells.(id) <- Some cell;
      cell

let observe_us t h v =
  if t.metrics_on then begin
    let cell = hcell t h.h_id in
    (* linear scan over <= 10 fixed bounds: no allocation, no log *)
    let n = Array.length buckets_us in
    let i = ref 0 in
    while !i < n && v > buckets_us.(!i) do
      Stdlib.incr i
    done;
    cell.counts.(!i) <- cell.counts.(!i) + 1;
    cell.h_count <- cell.h_count + 1;
    cell.h_sum_us <- cell.h_sum_us + v
  end

(* tracing *)

let track t cat =
  match Hashtbl.find_opt t.tracks cat with
  | Some id -> id
  | None ->
      let id = Hashtbl.length t.tracks + 1 in
      Hashtbl.replace t.tracks cat id;
      t.track_order <- cat :: t.track_order;
      id

let emit t ph ~cat ~name ~ts ~args =
  t.events <- { ph; name; cat; ts; tid = track t cat; args } :: t.events;
  t.n_events <- t.n_events + 1

let span t ~cat ?(args = []) ~begin_us ~end_us name =
  if t.tracing_on then begin
    (* emitted as one balanced pair; [end_us] clamps so a clock that did
       not advance still yields a well-formed zero-length span *)
    let end_us = max begin_us end_us in
    emit t 'B' ~cat ~name ~ts:begin_us ~args;
    emit t 'E' ~cat ~name ~ts:end_us ~args:[]
  end

let instant t ~cat ?(args = []) ?ts name =
  if t.tracing_on then
    let ts = match ts with Some x -> x | None -> now_us t in
    emit t 'i' ~cat ~name ~ts ~args

let event_count t = t.n_events

(* deterministic merge: append [src]'s record into [into] exactly as if
   [src]'s runs had executed sequentially on [into].  Events shift by
   [into]'s current timeline base and re-intern their track ids in
   emission order; afterwards the base advances by everything [src]
   consumed (its final [base_us]), so the next absorb lands after it. *)
let absorb ~into:dst src =
  Array.iteri
    (fun id v ->
      if v <> 0 then begin
        if id >= Array.length dst.cvals then dst.cvals <- grow_int dst.cvals id;
        dst.cvals.(id) <- dst.cvals.(id) + v
      end)
    src.cvals;
  Array.iteri
    (fun id w ->
      if w > 0 then begin
        if id >= Array.length dst.gvals then begin
          dst.gvals <- grow_float dst.gvals id;
          dst.gwrites <- grow_int dst.gwrites id
        end;
        dst.gvals.(id) <- src.gvals.(id);
        dst.gwrites.(id) <- dst.gwrites.(id) + w
      end)
    src.gwrites;
  Array.iteri
    (fun id cell ->
      match cell with
      | None -> ()
      | Some c ->
          let d = hcell dst id in
          Array.iteri (fun i n -> d.counts.(i) <- d.counts.(i) + n) c.counts;
          d.h_count <- d.h_count + c.h_count;
          d.h_sum_us <- d.h_sum_us + c.h_sum_us)
    src.hcells;
  let shift = dst.base_us in
  List.iter
    (fun e ->
      dst.events <-
        { e with ts = e.ts + shift; tid = track dst e.cat } :: dst.events;
      dst.n_events <- dst.n_events + 1)
    (List.rev src.events);
  dst.base_us <- dst.base_us + src.base_us

(* rendering *)

let metrics_dump t =
  let buf = Buffer.create 1024 in
  let adds fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  registered counters_reg
  |> List.sort (fun a b -> String.compare a.c_name b.c_name)
  |> List.iter (fun c -> adds "counter %s %d\n" c.c_name (counter_value t c));
  registered gauges_reg
  |> List.sort (fun a b -> String.compare a.g_name b.g_name)
  |> List.iter (fun g ->
         adds "gauge %s %s\n" g.g_name (Json.float_lit (gauge_value t g)));
  registered histograms_reg
  |> List.sort (fun a b -> String.compare a.h_name b.h_name)
  |> List.iter (fun h ->
         let cell = hcell t h.h_id in
         adds "histogram %s count %d sum_us %d" h.h_name cell.h_count
           cell.h_sum_us;
         Array.iteri
           (fun i bound -> adds " le%d:%d" bound cell.counts.(i))
           buckets_us;
         adds " inf:%d\n" cell.counts.(Array.length buckets_us));
  Buffer.contents buf

let metrics_json t =
  let obj fields = "{" ^ String.concat ", " fields ^ "}" in
  let counters_json =
    registered counters_reg
    |> List.sort (fun a b -> String.compare a.c_name b.c_name)
    |> List.map (fun c ->
           Printf.sprintf "%s: %d" (Json.quote c.c_name) (counter_value t c))
  in
  let gauges_json =
    registered gauges_reg
    |> List.sort (fun a b -> String.compare a.g_name b.g_name)
    |> List.map (fun g ->
           Printf.sprintf "%s: %s" (Json.quote g.g_name)
             (Json.float_lit (gauge_value t g)))
  in
  let histograms_json =
    registered histograms_reg
    |> List.sort (fun a b -> String.compare a.h_name b.h_name)
    |> List.map (fun h ->
           let cell = hcell t h.h_id in
           Printf.sprintf
             "%s: {\"count\": %d, \"sum_us\": %d, \"buckets_us\": [%s], \"counts\": [%s]}"
             (Json.quote h.h_name) cell.h_count cell.h_sum_us
             (String.concat ", "
                (Array.to_list (Array.map string_of_int buckets_us)))
             (String.concat ", "
                (Array.to_list (Array.map string_of_int cell.counts))))
  in
  Printf.sprintf "{\n  \"counters\": %s,\n  \"gauges\": %s,\n  \"histograms\": %s\n}\n"
    (obj counters_json) (obj gauges_json) (obj histograms_json)

let arg_json = function
  | S s -> Json.quote s
  | I n -> string_of_int n
  | F f -> Json.float_lit f

let event_json e =
  let buf = Buffer.create 96 in
  let adds fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  adds "{\"name\": %s, \"cat\": %s, \"ph\": \"%c\", \"ts\": %d, \"pid\": 1, \"tid\": %d"
    (Json.quote e.name) (Json.quote e.cat) e.ph e.ts e.tid;
  (match e.args with
  | [] -> ()
  | args ->
      adds ", \"args\": {%s}"
        (String.concat ", "
           (List.map (fun (k, v) -> Json.quote k ^ ": " ^ arg_json v) args));
      ());
  (* instant events need a scope; "t" = thread *)
  if e.ph = 'i' then adds ", \"s\": \"t\"";
  adds "}";
  Buffer.contents buf

let trace_json t =
  let metadata =
    { ph = 'M'; name = "process_name"; cat = "__metadata"; ts = 0; tid = 0;
      args = [ ("name", S "artemis-sim") ] }
    :: (List.rev t.track_order
       |> List.map (fun cat ->
              {
                ph = 'M';
                name = "thread_name";
                cat = "__metadata";
                ts = 0;
                tid = track t cat;
                args = [ ("name", S cat) ];
              }))
  in
  let all = metadata @ List.rev t.events in
  let total = List.length all in
  let buf = Buffer.create (128 * (total + 2)) in
  Buffer.add_string buf "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i e ->
      Buffer.add_string buf "  ";
      Buffer.add_string buf (event_json e);
      if i < total - 1 then Buffer.add_string buf ",";
      Buffer.add_char buf '\n')
    all;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* --- the current context (domain-local) ---

   Every domain, the initial one included, starts with its own private
   quiet context, so two domains never share one by accident.
   [par_map] installs a per-item context with [with_ctx]. *)

let current_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> create ())

let current () = Domain.DLS.get current_key
let set_current c = Domain.DLS.set current_key c

let with_ctx c f =
  let prev = current () in
  set_current c;
  Fun.protect ~finally:(fun () -> set_current prev) f

(* --- the recording-safe fan-out ---

   When the caller records, each item runs in a fresh context of its own
   (so worker domains never share a trace buffer or metric slots) and
   the item contexts are absorbed back in index order: [absorb]
   reproduces exactly what sequential execution would have recorded.
   When nothing records, a per-item context is pure allocation - every
   guarded call is a no-op either way - so items share their worker
   domain's own context and the merge step disappears. *)

let par_map ~jobs n f =
  let parent = current () in
  if not (metrics_enabled parent || tracing_enabled parent) then
    Artemis_util.Par.map ~jobs n f
  else
    Artemis_util.Par.map ~jobs n (fun i ->
        let ctx = create () in
        ctx.metrics_on <- parent.metrics_on;
        ctx.tracing_on <- parent.tracing_on;
        (with_ctx ctx (fun () -> f i), ctx))
    |> Array.map (fun (r, ctx) ->
           absorb ~into:parent ctx;
           r)
