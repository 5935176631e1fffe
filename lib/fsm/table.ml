open Ast
module Time = Artemis_util.Time
module Strmap = Artemis_util.Strmap

let error fmt = Format.kasprintf (fun s -> raise (Interp.Runtime_error s)) fmt

(* --- the flat representation ---

   Bytecode: one int per opcode, operands inline in the following
   word(s).  Two operand stacks - int/bool/time values (time is its
   microsecond count, bool is 0/1) on the int stack, floats on the float
   stack - so no value is ever tagged or boxed at run time.  The
   numbering below is matched by the literal patterns in [exec]; keep
   the two in sync.

      0 HALT             stop; guards leave their result on the int stack
      1 IPUSH k          push the inline literal k
      2 FPUSH i          push float pool entry i
      3 ILOAD r          push int register r
      4 FLOAD r          push float register r
      5 ISTORE r slot    pop into int register r (then var sink on slot)
      6 FSTORE r slot    pop into float register r (then var sink)
      7 TSLOAD           push the event timestamp (us)
      8 PATHLOAD         push the event path
      9 DEPLOAD s        push the event payload named by string pool s
     10 ENERGYLOAD       push the event energy level
     11 INEG  12 FNEG  13 NOT
     14 IADD  15 ISUB  16 IMUL  17 IDIV  18 IMOD
     19 FADD  20 FSUB  21 FMUL  22 FDIV
     23 IEQ  24 INE  25 ILT  26 ILE  27 IGT  28 IGE
     29 FEQ  30 FNE  31 FLT  32 FLE  33 FGT  34 FGE
     35 JMP pc          jump to the absolute program counter pc
     36 JZ pc           pop the int stack; jump when zero
     37 FAIL k          emit precompiled failure record k *)

let op_halt = 0
let op_ipush = 1
let op_fpush = 2
let op_iload = 3
let op_fload = 4
let op_istore = 5
let op_fstore = 6
let op_tsload = 7
let op_pathload = 8
let op_depload = 9
let op_energyload = 10
let op_ineg = 11
let op_fneg = 12
let op_not = 13
let op_iadd = 14
let op_isub = 15
let op_imul = 16
let op_idiv = 17
let op_imod = 18
let op_fadd = 19
let op_fsub = 20
let op_fmul = 21
let op_fdiv = 22
let op_ieq = 23
let op_ine = 24
let op_ilt = 25
let op_ile = 26
let op_igt = 27
let op_ige = 28
let op_feq = 29
let op_fne = 30
let op_flt = 31
let op_fle = 32
let op_fgt = 33
let op_fge = 34
let op_jmp = 35
let op_jz = 36
let op_fail = 37

type t = {
  machine : machine;
  state_names : string array;
  state_ids : Strmap.t;
  var_decl_arr : var_decl array;
  var_ids : Strmap.t;
  var_reg : int array;  (* slot -> register index within its class *)
  var_is_float : bool array;  (* slot -> register class *)
  n_iregs : int;  (* register 0 is the control state *)
  n_fregs : int;
  initial : int;
  task_ids : Strmap.t;  (* watched task -> dispatch column *)
  n_tasks : int;
  row_shift : int;  (* dispatch row stride = 1 lsl row_shift >= n_tasks + 1 *)
  (* dispatch.(((state * 2) + kind) * (n_tasks + 1) + task) is an offset
     into [cands] ([count; tr; tr; ...] segments, shared between rows
     with identical candidate lists) or -1 for "no transition can
     fire".  Column [n_tasks] is the unknown-task fallback (On_any
     transitions only). *)
  dispatch : int array;
  cands : int array;
  tr_guard_pc : int array;  (* transition -> guard entry pc, -1 unguarded *)
  tr_body_pc : int array;  (* transition -> body entry pc, -1 empty *)
  tr_target : int array;
  (* Quickened transitions.  The property generator ([To_fsm]) only ever
     emits a handful of guard and body shapes - counter comparisons
     against a literal, elapsed-time checks, counter bumps, timestamp
     latches.  Recognizing those at compile time and storing them as flat
     per-transition metadata keeps the steady-state hot path out of
     [exec] entirely; only dpData predicates and failure bodies still run
     bytecode.  Guard codes ([tr_qg]):
        0             general - run the bytecode at [tr_guard_pc]
        1             unconditional
        2..7          reg <  k, <=, >, >=, =, <>      (int/bool/time regs)
        8..13         (t_us - reg) < k, <=, >, >=, =, <>
     Body codes ([tr_qb]):
        0             general - run the bytecode at [tr_body_pc]
        1             empty body
        2             reg := k
        3             reg := reg + k
        4             reg := t_us *)
  tr_qg : int array;
  tr_qg_reg : int array;
  tr_qg_k : int array;
  tr_qb : int array;
  tr_qb_reg : int array;
  tr_qb_k : int array;
  tr_qb_slot : int array;
  code : int array;
  fpool : float array;
  spool : string array;
  failpool : Interp.failure array;
  stack_i : int;  (* worst-case operand stack depths, from lowering *)
  stack_f : int;
  watched : string list;
  any_event : bool;
}

(* --- lowering --- *)

type vec = { mutable buf : int array; mutable len : int }

let vec () = { buf = Array.make 64 0; len = 0 }

let vpush v x =
  if v.len = Array.length v.buf then begin
    let b = Array.make (2 * v.len) 0 in
    Array.blit v.buf 0 b 0 v.len;
    v.buf <- b
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

let varray v = Array.sub v.buf 0 v.len

type emitter = {
  ecode : vec;
  (* constant pools, newest first; a machine has a handful of constants,
     so interning scans the list *)
  mutable fpool_rev : float list;
  mutable n_f : int;
  mutable spool_rev : string list;
  mutable n_s : int;
  mutable failpool_rev : Interp.failure list;
  mutable n_fail : int;
  mutable imax : int;
  mutable fmax : int;
}

let emitter () =
  {
    ecode = vec ();
    fpool_rev = [];
    n_f = 0;
    spool_rev = [];
    n_s = 0;
    failpool_rev = [];
    n_fail = 0;
    imax = 0;
    fmax = 0;
  }

let bumpi em d = if d > em.imax then em.imax <- d
let bumpf em d = if d > em.fmax then em.fmax <- d

(* index of the first pool entry (oldest first) satisfying [same], or
   [-1] *)
let pool_find same rev n =
  let rec go i = function
    | [] -> -1
    | x :: rest -> if same x then i else go (i - 1) rest
  in
  go (n - 1) rev

(* floats are interned by bit pattern: NaN-safe, and -0. stays distinct *)
let fidx em x =
  let bits = Int64.bits_of_float x in
  match pool_find (fun y -> Int64.equal (Int64.bits_of_float y) bits) em.fpool_rev em.n_f with
  | -1 ->
      let i = em.n_f in
      em.fpool_rev <- x :: em.fpool_rev;
      em.n_f <- i + 1;
      i
  | i -> i

let sidx em k =
  match pool_find (String.equal k) em.spool_rev em.n_s with
  | -1 ->
      let i = em.n_s in
      em.spool_rev <- k :: em.spool_rev;
      em.n_s <- i + 1;
      i
  | i -> i

let failidx em f =
  let i = em.n_fail in
  em.failpool_rev <- f :: em.failpool_rev;
  em.n_fail <- i + 1;
  i

(* emit a jump with a placeholder target; [patch] points it at the
   current end of code *)
let emit_jump em op =
  vpush em.ecode op;
  let at = em.ecode.len in
  vpush em.ecode (-1);
  at

let patch em at = em.ecode.buf.(at) <- em.ecode.len

(* What lowering a machine's code needs: the emitter and the variable
   slot -> register mapping. *)
type lower = {
  em : emitter;
  slot_ids : Strmap.t;  (* variable -> slot *)
  slot_float : bool array;  (* slot -> register class *)
  slot_reg : int array;  (* slot -> register index within its class *)
}

(* [i]/[f] are the operand-stack depths on entry; every push records the
   new peak so instance scratch arrays can be sized exactly.  The
   invariant: an expression leaves exactly one value, on the stack of
   its static class, and [emit_expr] returns that class ([true] for the
   float stack).  The machine has passed [Typecheck.check_exn], so the
   class of an operator's left operand decides the opcode family and no
   expression is typed twice. *)
let rec emit_expr lo e ~i ~f =
  let em = lo.em in
  let code = em.ecode in
  let emit = emit_expr lo in
  match e with
  | Lit (Vint n) ->
      vpush code op_ipush;
      vpush code n;
      bumpi em (i + 1);
      false
  | Lit (Vbool b) ->
      vpush code op_ipush;
      vpush code (if b then 1 else 0);
      bumpi em (i + 1);
      false
  | Lit (Vtime tt) ->
      vpush code op_ipush;
      vpush code (Time.to_us tt);
      bumpi em (i + 1);
      false
  | Lit (Vfloat x) ->
      vpush code op_fpush;
      vpush code (fidx em x);
      bumpf em (f + 1);
      true
  | Var x ->
      let slot = Strmap.find lo.slot_ids x ~default:(-1) in
      if lo.slot_float.(slot) then begin
        vpush code op_fload;
        vpush code lo.slot_reg.(slot);
        bumpf em (f + 1);
        true
      end
      else begin
        vpush code op_iload;
        vpush code lo.slot_reg.(slot);
        bumpi em (i + 1);
        false
      end
  | Timestamp ->
      vpush code op_tsload;
      bumpi em (i + 1);
      false
  | Event_path ->
      vpush code op_pathload;
      bumpi em (i + 1);
      false
  | Dep_data k ->
      vpush code op_depload;
      vpush code (sidx em k);
      bumpf em (f + 1);
      true
  | Energy_level ->
      vpush code op_energyload;
      bumpf em (f + 1);
      true
  | Unop (Neg, a) ->
      let fl = emit a ~i ~f in
      vpush code (if fl then op_fneg else op_ineg);
      fl
  | Unop (Not, a) ->
      ignore (emit a ~i ~f : bool);
      vpush code op_not;
      false
  | Binop (And, a, b) ->
      (* short-circuit, like the interpreter: b's code (and its dynamic
         errors) is skipped when a is false *)
      ignore (emit a ~i ~f : bool);
      let jz = emit_jump em op_jz in
      ignore (emit b ~i ~f : bool);
      let jend = emit_jump em op_jmp in
      patch em jz;
      vpush code op_ipush;
      vpush code 0;
      bumpi em (i + 1);
      patch em jend;
      false
  | Binop (Or, a, b) ->
      ignore (emit a ~i ~f : bool);
      let jz = emit_jump em op_jz in
      vpush code op_ipush;
      vpush code 1;
      bumpi em (i + 1);
      let jend = emit_jump em op_jmp in
      patch em jz;
      ignore (emit b ~i ~f : bool);
      patch em jend;
      false
  | Binop (op, a, b) ->
      (* operands evaluate left-to-right, matching the interpreter: when
         both raise, the left error must win in every engine *)
      if emit a ~i ~f then begin
        ignore (emit b ~i ~f:(f + 1) : bool);
        let opc =
          match op with
          | Add -> op_fadd
          | Sub -> op_fsub
          | Mul -> op_fmul
          | Div -> op_fdiv
          | Eq -> op_feq
          | Ne -> op_fne
          | Lt -> op_flt
          | Le -> op_fle
          | Gt -> op_fgt
          | Ge -> op_fge
          | Mod | And | Or -> assert false (* ill-typed / handled above *)
        in
        vpush code opc;
        match op with
        | Eq | Ne | Lt | Le | Gt | Ge ->
            bumpi em (i + 1);
            false
        | _ -> true
      end
      else begin
        ignore (emit b ~i:(i + 1) ~f : bool);
        let opc =
          match op with
          | Add -> op_iadd
          | Sub -> op_isub
          | Mul -> op_imul
          | Div -> op_idiv
          | Mod -> op_imod
          | Eq -> op_ieq
          | Ne -> op_ine
          | Lt -> op_ilt
          | Le -> op_ile
          | Gt -> op_igt
          | Ge -> op_ige
          | And | Or -> assert false
        in
        vpush code opc;
        false
      end

let rec emit_stmt lo ~machine_name = function
  | Assign (x, e) ->
      ignore (emit_expr lo e ~i:0 ~f:0 : bool);
      let slot = Strmap.find lo.slot_ids x ~default:(-1) in
      let code = lo.em.ecode in
      vpush code (if lo.slot_float.(slot) then op_fstore else op_istore);
      vpush code lo.slot_reg.(slot);
      vpush code slot
  | If (cond, then_, else_) ->
      ignore (emit_expr lo cond ~i:0 ~f:0 : bool);
      let jz = emit_jump lo.em op_jz in
      List.iter (emit_stmt lo ~machine_name) then_;
      let jend = emit_jump lo.em op_jmp in
      patch lo.em jz;
      List.iter (emit_stmt lo ~machine_name) else_;
      patch lo.em jend
  | Fail (action, target_path) ->
      (* the failure record is fully known at compile time *)
      let k =
        failidx lo.em
          { Interp.failed_machine = machine_name; action; target_path }
      in
      vpush lo.em.ecode op_fail;
      vpush lo.em.ecode k

let compile (m : machine) =
  Typecheck.check_exn m;
  let state_names = Array.of_list (List.map (fun s -> s.state_name) m.states) in
  let state_ids = Strmap.build (List.mapi (fun idx s -> (s.state_name, idx)) m.states) in
  let var_decl_arr = Array.of_list m.vars in
  let nvars = Array.length var_decl_arr in
  let var_ids = Strmap.build (List.mapi (fun idx v -> (v.var_name, idx)) m.vars) in
  let var_is_float = Array.map (fun v -> v.ty = Tfloat) var_decl_arr in
  let var_reg = Array.make (max 1 nvars) 0 in
  let n_iregs = ref 1 (* register 0: control state *) and n_fregs = ref 0 in
  Array.iteri
    (fun slot fl ->
      if fl then begin
        var_reg.(slot) <- !n_fregs;
        incr n_fregs
      end
      else begin
        var_reg.(slot) <- !n_iregs;
        incr n_iregs
      end)
    var_is_float;
  (* watched tasks in first-mention order *)
  let watched = ref [] in
  let any_event = ref false in
  List.iter
    (fun s ->
      List.iter
        (fun tr ->
          match tr.trigger with
          | On_start task | On_end task ->
              if not (List.mem task !watched) then watched := task :: !watched
          | On_any -> any_event := true)
        s.transitions)
    m.states;
  let watched = List.rev !watched in
  let task_ids = Strmap.build (List.mapi (fun idx task -> (task, idx)) watched) in
  let n_tasks = List.length watched in
  (* lower every transition's guard and body *)
  let em = emitter () in
  let lo = { em; slot_ids = var_ids; slot_float = var_is_float; slot_reg = var_reg } in
  (* quick-form recognizers (codes documented on [type t]); anything they
     decline falls through to full bytecode, so they are free to be
     conservative *)
  let int_slot x =
    let slot = Strmap.find var_ids x ~default:(-1) in
    if var_is_float.(slot) then None else Some (var_reg.(slot), slot)
  in
  let cmp_base = function
    | Lt -> Some 0
    | Le -> Some 1
    | Gt -> Some 2
    | Ge -> Some 3
    | Eq -> Some 4
    | Ne -> Some 5
    | _ -> None
  in
  let quick_guard = function
    | None -> Some (1, 0, 0)
    | Some (Var x) -> (
        (* a typechecked guard variable is a bool: an int-class register *)
        match int_slot x with
        | Some (reg, _) -> Some (7 (* reg <> 0 *), reg, 0)
        | None -> None)
    | Some (Binop (op, Var x, Lit lit)) -> (
        match (cmp_base op, int_slot x, lit) with
        | Some c, Some (reg, _), Vint k -> Some (2 + c, reg, k)
        | Some c, Some (reg, _), Vtime tt -> Some (2 + c, reg, Time.to_us tt)
        | _ -> None)
    | Some (Binop (op, Binop (Sub, Timestamp, Var x), Lit (Vtime tt))) -> (
        match (cmp_base op, int_slot x) with
        | Some c, Some (reg, _) -> Some (8 + c, reg, Time.to_us tt)
        | _ -> None)
    | _ -> None
  in
  let quick_body = function
    | [] -> Some (1, 0, 0, 0)
    | [ Assign (x, rhs) ] -> (
        match int_slot x with
        | None -> None
        | Some (reg, slot) -> (
            match rhs with
            | Lit (Vint k) -> Some (2, reg, k, slot)
            | Lit (Vbool b) -> Some (2, reg, (if b then 1 else 0), slot)
            | Lit (Vtime tt) -> Some (2, reg, Time.to_us tt, slot)
            | Timestamp -> Some (4, reg, 0, slot)
            | Binop (Add, Var y, Lit (Vint k)) when String.equal y x ->
                Some (3, reg, k, slot)
            | Binop (Sub, Var y, Lit (Vint k)) when String.equal y x ->
                Some (3, reg, -k, slot)
            | _ -> None))
    | _ -> None
  in
  let transitions =
    List.concat_map (fun s -> s.transitions) m.states |> Array.of_list
  in
  let ntrans = Array.length transitions in
  let tr_guard_pc = Array.make (max 1 ntrans) (-1) in
  let tr_body_pc = Array.make (max 1 ntrans) (-1) in
  let tr_target = Array.make (max 1 ntrans) 0 in
  let tr_qg = Array.make (max 1 ntrans) 0 in
  let tr_qg_reg = Array.make (max 1 ntrans) 0 in
  let tr_qg_k = Array.make (max 1 ntrans) 0 in
  let tr_qb = Array.make (max 1 ntrans) 0 in
  let tr_qb_reg = Array.make (max 1 ntrans) 0 in
  let tr_qb_k = Array.make (max 1 ntrans) 0 in
  let tr_qb_slot = Array.make (max 1 ntrans) 0 in
  Array.iteri
    (fun idx tr ->
      (match quick_guard tr.guard with
      | Some (q, reg, k) ->
          tr_qg.(idx) <- q;
          tr_qg_reg.(idx) <- reg;
          tr_qg_k.(idx) <- k
      | None ->
          (* quick_guard only declines a present guard *)
          let g = Option.get tr.guard in
          tr_guard_pc.(idx) <- em.ecode.len;
          ignore (emit_expr lo g ~i:0 ~f:0 : bool);
          vpush em.ecode op_halt);
      (match quick_body tr.body with
      | Some (q, reg, k, slot) ->
          tr_qb.(idx) <- q;
          tr_qb_reg.(idx) <- reg;
          tr_qb_k.(idx) <- k;
          tr_qb_slot.(idx) <- slot
      | None ->
          tr_body_pc.(idx) <- em.ecode.len;
          List.iter (emit_stmt lo ~machine_name:m.machine_name) tr.body;
          vpush em.ecode op_halt);
      tr_target.(idx) <- Strmap.find state_ids tr.target ~default:(-1))
    transitions;
  (* dense dispatch over (state, kind, task column); rows with identical
     candidate lists share one CSR segment.  [tr_col] is the column a
     transition's trigger names ([-1] for [On_any], which fires in every
     column) and [tr_kind] its event kind. *)
  let tr_col = Array.make (max 1 ntrans) (-1) in
  let tr_kind = Array.make (max 1 ntrans) (-1) in
  Array.iteri
    (fun idx tr ->
      match tr.trigger with
      | On_any -> ()
      | On_start task ->
          tr_kind.(idx) <- 0;
          tr_col.(idx) <- Strmap.find task_ids task ~default:(-1)
      | On_end task ->
          tr_kind.(idx) <- 1;
          tr_col.(idx) <- Strmap.find task_ids task ~default:(-1))
    transitions;
  let cands = vec () in
  let segs = ref [] (* (candidate list, offset), a few per machine *) in
  let seg_of lst =
    match lst with
    | [] -> -1
    | _ -> (
        match List.assoc_opt lst !segs with
        | Some off -> off
        | None ->
            let off = cands.len in
            vpush cands (List.length lst);
            List.iter (vpush cands) lst;
            segs := (lst, off) :: !segs;
            off)
  in
  let nstates = Array.length state_names in
  (* rows padded to a power of two: the hot path indexes with a shift,
     not a multiply *)
  let row_shift =
    let s = ref 0 in
    while 1 lsl !s < n_tasks + 1 do
      incr s
    done;
    !s
  in
  let stride = 1 lsl row_shift in
  let dispatch = Array.make (max 1 (nstates * 2 * stride)) (-1) in
  let first = ref 0 in
  List.iteri
    (fun si s ->
      let lo_tr = !first and hi_tr = !first + List.length s.transitions in
      first := hi_tr;
      for kind = 0 to 1 do
        for col = 0 to n_tasks do
          (* declaration order: collect backwards, consing to the front *)
          let matching = ref [] in
          for idx = hi_tr - 1 downto lo_tr do
            if tr_kind.(idx) < 0 || (tr_kind.(idx) = kind && tr_col.(idx) = col)
            then matching := idx :: !matching
          done;
          dispatch.((((si * 2) + kind) lsl row_shift) + col) <- seg_of !matching
        done
      done)
    m.states;
  {
    machine = m;
    state_names;
    state_ids;
    var_decl_arr;
    var_ids;
    var_reg;
    var_is_float;
    n_iregs = !n_iregs;
    n_fregs = !n_fregs;
    initial = Strmap.find state_ids m.initial ~default:(-1);
    task_ids;
    n_tasks;
    dispatch;
    cands = varray cands;
    row_shift;
    tr_guard_pc;
    tr_body_pc;
    tr_target;
    tr_qg;
    tr_qg_reg;
    tr_qg_k;
    tr_qb;
    tr_qb_reg;
    tr_qb_k;
    tr_qb_slot;
    code = varray em.ecode;
    fpool = Array.of_list (List.rev em.fpool_rev);
    spool = Array.of_list (List.rev em.spool_rev);
    failpool = Array.of_list (List.rev em.failpool_rev);
    stack_i = em.imax;
    stack_f = em.fmax;
    watched;
    any_event = !any_event;
  }

(* --- accessors --- *)

let machine t = t.machine
let name t = t.machine.machine_name
let state_count t = Array.length t.state_names
let state_name t i = t.state_names.(i)
(* [Strmap] never raises; the public lookups keep [Not_found] *)
let find_exn map key =
  let i = Strmap.find map key ~default:(-1) in
  if i < 0 then raise Not_found else i

let state_id t n = find_exn t.state_ids n
let initial_state t = t.initial
let var_count t = Array.length t.var_decl_arr
let var_name t i = t.var_decl_arr.(i).var_name
let var_id t n = find_exn t.var_ids n
let var_decls t = t.var_decl_arr
let watched_tasks t = t.watched
let mentions_task t task =
  t.any_event || Strmap.find t.task_ids task ~default:(-1) >= 0

let dispatch_words t =
  (* per-transition metadata: guard pc, body pc, target, plus the seven
     quickening words *)
  Array.length t.dispatch + Array.length t.cands
  + (10 * Array.length t.tr_target)

let code_words t = Array.length t.code + Array.length t.fpool
let buffer_words t = dispatch_words t + code_words t
let int_regs t = t.n_iregs
let float_regs t = t.n_fregs

(* --- instances --- *)

(* Everything [step] writes lives here, so one [t] can serve any number
   of instances, on any number of domains. *)
type inst = {
  ints : int array;  (* register 0 is the control state *)
  floats : float array;
  istack : int array;
  fstack : float array;
  mutable failures : Interp.failure list;  (* reverse emission order *)
  (* direct-mapped dispatch memo, indexed by the cheap string hash: an
     app's task loop reuses the same name strings event after event, so
     after one pass every lookup is two loads and a physical-equality
     check.  Sound because equal pointers imply equal contents imply the
     same column; a colliding or fresh string just re-probes [task_ids]
     and overwrites its slot. *)
  memo_keys : string array;
  memo_cols : int array;
  (* the slot the previous event's task hashed to: consecutive events
     usually repeat a task string (start/end pairs), and re-probing that
     slot first skips the hash.  An int field, so updating it never hits
     the write barrier. *)
  mutable last_h : int;
  var_sink : int -> unit;
  state_sink : int -> unit;
  sinks : bool;  (* false = both sinks are [no_sink]; skip the calls *)
}

let no_sink (_ : int) = ()
let memo_mask = 15

let current_state inst = inst.ints.(0)
let set_state inst s = inst.ints.(0) <- s

let load_var t inst slot v =
  let reg = t.var_reg.(slot) in
  match v with
  | Vint n -> inst.ints.(reg) <- n
  | Vbool b -> inst.ints.(reg) <- (if b then 1 else 0)
  | Vtime tt -> inst.ints.(reg) <- Time.to_us tt
  | Vfloat x -> inst.floats.(reg) <- x

let read_var t inst slot =
  let reg = t.var_reg.(slot) in
  match t.var_decl_arr.(slot).ty with
  | Tint -> Vint inst.ints.(reg)
  | Tbool -> Vbool (inst.ints.(reg) <> 0)
  | Ttime -> Vtime (Time.of_us inst.ints.(reg))
  | Tfloat -> Vfloat inst.floats.(reg)

let reset_vars t inst =
  set_state inst t.initial;
  Array.iteri (fun slot v -> load_var t inst slot v.init) t.var_decl_arr

let instance ?(var_sink = no_sink) ?(state_sink = no_sink) t =
  let inst =
    {
      ints = Array.make t.n_iregs 0;
      floats = Array.make (max 1 t.n_fregs) 0.;
      istack = Array.make (max 1 t.stack_i) 0;
      fstack = Array.make (max 1 t.stack_f) 0.;
      failures = [];
      memo_keys = Array.make (memo_mask + 1) Strmap.sentinel;
      memo_cols = Array.make (memo_mask + 1) 0;
      last_h = 0;
      var_sink;
      state_sink;
      sinks = not (var_sink == no_sink && state_sink == no_sink);
    }
  in
  reset_vars t inst;
  inst

(* --- execution --- *)

(* find an event payload without allocating (the assoc list's floats are
   already boxed; pushing one onto the float stack just copies it) *)
let rec dep_find key = function
  | [] -> error "event carries no data for %S" key
  | (k, (v : float)) :: rest -> if String.equal k key then v else dep_find key rest

(* One bytecode program, from [pc0] to its HALT.  Returns the int-stack
   top (guards leave their boolean there); bodies ignore the result.
   The literal opcode patterns mirror the numbering at the top of the
   file.

   A while loop over ref-held [pc]/[isp]/[fsp] (the compiler's
   [eliminate_ref] pass turns them into registers - a local recursive
   function would allocate a closure per call here), and every array
   access is unchecked: [pc] and the inline operands come from our own
   emitter, stack offsets never exceed the emit-time [stack_i]/[stack_f]
   peaks the scratch arrays are sized by, and register numbers are
   bounded by [n_iregs]/[n_fregs]. *)
let exec t inst (ev : Interp.event) pc0 =
  let code = t.code in
  let ints = inst.ints and floats = inst.floats in
  let istack = inst.istack and fstack = inst.fstack in
  let pc = ref pc0 and isp = ref 0 and fsp = ref 0 in
  let running = ref true in
  while !running do
    let op = Array.unsafe_get code !pc in
    match op with
    | 0 (* HALT *) -> running := false
    | 1 (* IPUSH *) ->
        Array.unsafe_set istack !isp (Array.unsafe_get code (!pc + 1));
        isp := !isp + 1;
        pc := !pc + 2
    | 2 (* FPUSH *) ->
        Array.unsafe_set fstack !fsp
          (Array.unsafe_get t.fpool (Array.unsafe_get code (!pc + 1)));
        fsp := !fsp + 1;
        pc := !pc + 2
    | 3 (* ILOAD *) ->
        Array.unsafe_set istack !isp
          (Array.unsafe_get ints (Array.unsafe_get code (!pc + 1)));
        isp := !isp + 1;
        pc := !pc + 2
    | 4 (* FLOAD *) ->
        Array.unsafe_set fstack !fsp
          (Array.unsafe_get floats (Array.unsafe_get code (!pc + 1)));
        fsp := !fsp + 1;
        pc := !pc + 2
    | 5 (* ISTORE *) ->
        isp := !isp - 1;
        Array.unsafe_set ints
          (Array.unsafe_get code (!pc + 1))
          (Array.unsafe_get istack !isp);
        if inst.sinks then inst.var_sink (Array.unsafe_get code (!pc + 2));
        pc := !pc + 3
    | 6 (* FSTORE *) ->
        fsp := !fsp - 1;
        Array.unsafe_set floats
          (Array.unsafe_get code (!pc + 1))
          (Array.unsafe_get fstack !fsp);
        if inst.sinks then inst.var_sink (Array.unsafe_get code (!pc + 2));
        pc := !pc + 3
    | 7 (* TSLOAD *) ->
        Array.unsafe_set istack !isp (Time.to_us ev.Interp.timestamp);
        isp := !isp + 1;
        pc := !pc + 1
    | 8 (* PATHLOAD *) ->
        Array.unsafe_set istack !isp ev.Interp.path;
        isp := !isp + 1;
        pc := !pc + 1
    | 9 (* DEPLOAD *) ->
        Array.unsafe_set fstack !fsp
          (dep_find
             (Array.unsafe_get t.spool (Array.unsafe_get code (!pc + 1)))
             ev.Interp.dep_data);
        fsp := !fsp + 1;
        pc := !pc + 2
    | 10 (* ENERGYLOAD *) ->
        Array.unsafe_set fstack !fsp ev.Interp.energy_mj;
        fsp := !fsp + 1;
        pc := !pc + 1
    | 11 (* INEG *) ->
        Array.unsafe_set istack (!isp - 1) (-Array.unsafe_get istack (!isp - 1));
        pc := !pc + 1
    | 12 (* FNEG *) ->
        Array.unsafe_set fstack (!fsp - 1) (-.Array.unsafe_get fstack (!fsp - 1));
        pc := !pc + 1
    | 13 (* NOT *) ->
        Array.unsafe_set istack (!isp - 1)
          (1 - Array.unsafe_get istack (!isp - 1));
        pc := !pc + 1
    | 14 (* IADD *) ->
        let s = !isp - 2 in
        Array.unsafe_set istack s
          (Array.unsafe_get istack s + Array.unsafe_get istack (s + 1));
        isp := s + 1;
        pc := !pc + 1
    | 15 (* ISUB *) ->
        let s = !isp - 2 in
        Array.unsafe_set istack s
          (Array.unsafe_get istack s - Array.unsafe_get istack (s + 1));
        isp := s + 1;
        pc := !pc + 1
    | 16 (* IMUL *) ->
        let s = !isp - 2 in
        Array.unsafe_set istack s
          (Array.unsafe_get istack s * Array.unsafe_get istack (s + 1));
        isp := s + 1;
        pc := !pc + 1
    | 17 (* IDIV *) ->
        let s = !isp - 2 in
        let d = Array.unsafe_get istack (s + 1) in
        if d = 0 then error "integer division by zero";
        Array.unsafe_set istack s (Array.unsafe_get istack s / d);
        isp := s + 1;
        pc := !pc + 1
    | 18 (* IMOD *) ->
        let s = !isp - 2 in
        let d = Array.unsafe_get istack (s + 1) in
        if d = 0 then error "modulo by zero";
        Array.unsafe_set istack s (Array.unsafe_get istack s mod d);
        isp := s + 1;
        pc := !pc + 1
    | 19 (* FADD *) ->
        let s = !fsp - 2 in
        Array.unsafe_set fstack s
          (Array.unsafe_get fstack s +. Array.unsafe_get fstack (s + 1));
        fsp := s + 1;
        pc := !pc + 1
    | 20 (* FSUB *) ->
        let s = !fsp - 2 in
        Array.unsafe_set fstack s
          (Array.unsafe_get fstack s -. Array.unsafe_get fstack (s + 1));
        fsp := s + 1;
        pc := !pc + 1
    | 21 (* FMUL *) ->
        let s = !fsp - 2 in
        Array.unsafe_set fstack s
          (Array.unsafe_get fstack s *. Array.unsafe_get fstack (s + 1));
        fsp := s + 1;
        pc := !pc + 1
    | 22 (* FDIV *) ->
        let s = !fsp - 2 in
        Array.unsafe_set fstack s
          (Array.unsafe_get fstack s /. Array.unsafe_get fstack (s + 1));
        fsp := s + 1;
        pc := !pc + 1
    | 23 (* IEQ *) ->
        let s = !isp - 2 in
        Array.unsafe_set istack s
          (if Array.unsafe_get istack s = Array.unsafe_get istack (s + 1) then 1
           else 0);
        isp := s + 1;
        pc := !pc + 1
    | 24 (* INE *) ->
        let s = !isp - 2 in
        Array.unsafe_set istack s
          (if Array.unsafe_get istack s <> Array.unsafe_get istack (s + 1) then 1
           else 0);
        isp := s + 1;
        pc := !pc + 1
    | 25 (* ILT *) ->
        let s = !isp - 2 in
        Array.unsafe_set istack s
          (if Array.unsafe_get istack s < Array.unsafe_get istack (s + 1) then 1
           else 0);
        isp := s + 1;
        pc := !pc + 1
    | 26 (* ILE *) ->
        let s = !isp - 2 in
        Array.unsafe_set istack s
          (if Array.unsafe_get istack s <= Array.unsafe_get istack (s + 1) then 1
           else 0);
        isp := s + 1;
        pc := !pc + 1
    | 27 (* IGT *) ->
        let s = !isp - 2 in
        Array.unsafe_set istack s
          (if Array.unsafe_get istack s > Array.unsafe_get istack (s + 1) then 1
           else 0);
        isp := s + 1;
        pc := !pc + 1
    | 28 (* IGE *) ->
        let s = !isp - 2 in
        Array.unsafe_set istack s
          (if Array.unsafe_get istack s >= Array.unsafe_get istack (s + 1) then 1
           else 0);
        isp := s + 1;
        pc := !pc + 1
    | 29 (* FEQ *) ->
        (* IEEE equality, like [Ast.equal_value]: NaN <> NaN, -0. = +0. *)
        let s = !fsp - 2 in
        Array.unsafe_set istack !isp
          (if Array.unsafe_get fstack s = Array.unsafe_get fstack (s + 1) then 1
           else 0);
        isp := !isp + 1;
        fsp := s;
        pc := !pc + 1
    | 30 (* FNE *) ->
        let s = !fsp - 2 in
        Array.unsafe_set istack !isp
          (if Array.unsafe_get fstack s = Array.unsafe_get fstack (s + 1) then 0
           else 1);
        isp := !isp + 1;
        fsp := s;
        pc := !pc + 1
    | 31 (* FLT *) ->
        let s = !fsp - 2 in
        Array.unsafe_set istack !isp
          (if Array.unsafe_get fstack s < Array.unsafe_get fstack (s + 1) then 1
           else 0);
        isp := !isp + 1;
        fsp := s;
        pc := !pc + 1
    | 32 (* FLE *) ->
        let s = !fsp - 2 in
        Array.unsafe_set istack !isp
          (if Array.unsafe_get fstack s <= Array.unsafe_get fstack (s + 1) then 1
           else 0);
        isp := !isp + 1;
        fsp := s;
        pc := !pc + 1
    | 33 (* FGT *) ->
        let s = !fsp - 2 in
        Array.unsafe_set istack !isp
          (if Array.unsafe_get fstack s > Array.unsafe_get fstack (s + 1) then 1
           else 0);
        isp := !isp + 1;
        fsp := s;
        pc := !pc + 1
    | 34 (* FGE *) ->
        let s = !fsp - 2 in
        Array.unsafe_set istack !isp
          (if Array.unsafe_get fstack s >= Array.unsafe_get fstack (s + 1) then 1
           else 0);
        isp := !isp + 1;
        fsp := s;
        pc := !pc + 1
    | 35 (* JMP *) -> pc := Array.unsafe_get code (!pc + 1)
    | 36 (* JZ *) ->
        isp := !isp - 1;
        if Array.unsafe_get istack !isp = 0 then
          pc := Array.unsafe_get code (!pc + 1)
        else pc := !pc + 2
    | 37 (* FAIL *) ->
        inst.failures <-
          Array.unsafe_get t.failpool (Array.unsafe_get code (!pc + 1))
          :: inst.failures;
        pc := !pc + 2
    | op -> error "corrupt bytecode: opcode %d at pc %d" op !pc
  done;
  if !isp > 0 then Array.unsafe_get istack (!isp - 1) else 0

let step t inst (ev : Interp.event) =
  let kind = match ev.Interp.kind with Interp.Start -> 0 | Interp.End -> 1 in
  let task = ev.Interp.task in
  let col =
    (* front cache first (no hash), then the memo slot the task really
       hashes to, then the full probe *)
    let lh = inst.last_h in
    if Array.unsafe_get inst.memo_keys lh == task then
      Array.unsafe_get inst.memo_cols lh
    else begin
      let h = Strmap.hash task land memo_mask in
      inst.last_h <- h;
      if Array.unsafe_get inst.memo_keys h == task then
        Array.unsafe_get inst.memo_cols h
      else begin
        let c = Strmap.find t.task_ids task ~default:t.n_tasks in
        Array.unsafe_set inst.memo_keys h task;
        Array.unsafe_set inst.memo_cols h c;
        c
      end
    end
  in
  let seg =
    Array.unsafe_get t.dispatch
      ((((Array.unsafe_get inst.ints 0 * 2) + kind) lsl t.row_shift) + col)
  in
  if seg < 0 then [] (* implicit self-transition *)
  else begin
    let cands = t.cands in
    let n = Array.unsafe_get cands seg in
    (* declaration-order guard scan (refs, not a local rec: see [exec]);
       quick guards evaluate inline, only general ones enter [exec] *)
    let fired = ref (-1) in
    let i = ref 0 in
    while !fired < 0 && !i < n do
      let tr = Array.unsafe_get cands (seg + 1 + !i) in
      let q = Array.unsafe_get t.tr_qg tr in
      let pass =
        if q = 1 then true
        else if q = 0 then begin
          let g = Array.unsafe_get t.tr_guard_pc tr in
          g < 0 || exec t inst ev g <> 0
        end
        else begin
          let v0 =
            Array.unsafe_get inst.ints (Array.unsafe_get t.tr_qg_reg tr)
          in
          let v =
            if q >= 8 then Time.to_us ev.Interp.timestamp - v0 else v0
          in
          let k = Array.unsafe_get t.tr_qg_k tr in
          match if q < 8 then q else q - 6 with
          | 2 -> v < k
          | 3 -> v <= k
          | 4 -> v > k
          | 5 -> v >= k
          | 6 -> v = k
          | _ -> v <> k
        end
      in
      if pass then fired := tr else incr i
    done;
    if !fired < 0 then [] (* implicit self-transition *)
    else begin
      let tr = !fired in
      let qb = Array.unsafe_get t.tr_qb tr in
      let result =
        if qb = 0 then begin
          inst.failures <- [];
          ignore (exec t inst ev (Array.unsafe_get t.tr_body_pc tr));
          match inst.failures with [] -> [] | fs -> List.rev fs
        end
        else begin
          (* quick bodies contain no FAIL, so the result is always [] *)
          if qb >= 2 then begin
            let at = Array.unsafe_get t.tr_qb_reg tr in
            let v =
              if qb = 2 then Array.unsafe_get t.tr_qb_k tr
              else if qb = 3 then
                Array.unsafe_get inst.ints at + Array.unsafe_get t.tr_qb_k tr
              else Time.to_us ev.Interp.timestamp
            in
            Array.unsafe_set inst.ints at v;
            if inst.sinks then
              inst.var_sink (Array.unsafe_get t.tr_qb_slot tr)
          end;
          []
        end
      in
      let tgt = Array.unsafe_get t.tr_target tr in
      Array.unsafe_set inst.ints 0 tgt;
      if inst.sinks then inst.state_sink tgt;
      result
    end
  end

(* --- static worst-case step costs (energy-admissibility analysis) --- *)

(* Inline operand words following each opcode; must match [exec]. *)
let operand_words = function
  | 1 (* IPUSH *) | 2 (* FPUSH *) | 3 (* ILOAD *) | 4 (* FLOAD *)
  | 9 (* DEPLOAD *) | 35 (* JMP *) | 36 (* JZ *) | 37 (* FAIL *) -> 1
  | 5 (* ISTORE *) | 6 (* FSTORE *) -> 2
  | _ -> 0

(* Linear scan from [pc] to the program's terminating HALT.  The
   statement language has no loops, so every jump the lowering emits is
   forward and each op executes at most once: the (ops, stores) of the
   whole scan are a sound upper bound on any dynamic execution from
   [pc]. *)
let program_cost t pc =
  let ops = ref 0 and writes = ref 0 and p = ref pc in
  while t.code.(!p) <> op_halt do
    let op = t.code.(!p) in
    incr ops;
    if op = op_istore || op = op_fstore then incr writes;
    p := !p + 1 + operand_words op
  done;
  (!ops, !writes)

let guard_ops t tr =
  match t.tr_qg.(tr) with
  | 0 ->
      let g = t.tr_guard_pc.(tr) in
      if g < 0 then 0 else fst (program_cost t g)
  | 1 -> 0 (* unconditional *)
  | q when q < 8 -> 1 (* reg CMP k *)
  | _ -> 2 (* (t - reg) CMP k *)

(* (ops, var stores) of a fired body; the control-state write is charged
   separately by the caller. *)
let body_cost t tr =
  match t.tr_qb.(tr) with
  | 0 ->
      let b = t.tr_body_pc.(tr) in
      if b < 0 then (0, 0) else program_cost t b
  | 1 -> (0, 0) (* empty *)
  | 2 (* reg := k *) | 4 (* reg := t *) -> (1, 1)
  | _ -> (2, 1) (* reg := reg + k *)

type step_cost = {
  cost_state : string;
  cost_start : bool;  (** true for a start event, false for an end event *)
  cost_guard_ops : int;
  cost_body_ops : int;
  cost_nvm_writes : int;
}

let step_costs t =
  let acc = ref [] in
  for state = Array.length t.state_names - 1 downto 0 do
    for kind = 1 downto 0 do
      let base = ((state * 2) + kind) lsl t.row_shift in
      let gmax = ref 0 and bmax = ref 0 and wmax = ref 0 in
      let fires = ref false in
      for col = 0 to t.n_tasks do
        let seg = t.dispatch.(base + col) in
        if seg >= 0 then begin
          fires := true;
          (* worst case: every candidate guard runs (none passes until
             the last), then the worst body fires *)
          let gsum = ref 0 in
          let n = t.cands.(seg) in
          for i = 0 to n - 1 do
            let tr = t.cands.(seg + 1 + i) in
            gsum := !gsum + guard_ops t tr;
            let bops, bwrites = body_cost t tr in
            bmax := max !bmax bops;
            (* + 1: the fired transition always writes the control state *)
            wmax := max !wmax (bwrites + 1)
          done;
          gmax := max !gmax !gsum
        end
      done;
      if !fires then
        acc :=
          {
            cost_state = t.state_names.(state);
            cost_start = kind = 0;
            cost_guard_ops = !gmax;
            cost_body_ops = !bmax;
            cost_nvm_writes = !wmax;
          }
          :: !acc
    done
  done;
  !acc
