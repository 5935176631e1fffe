(* Model-based testing of the NVM store: random operation sequences are
   run simultaneously against the real store and a trivially-correct pure
   model (plain arrays plus an explicit pending map).  After every
   operation the visible value of every cell must agree, and power
   failures must roll back pending transaction writes and reset volatile
   cells while committed FRAM survives.  This pins the semantics the
   fault-injection engine's atomicity oracle relies on. *)

open Artemis

(* Fixed cell population: enough variety to cross kinds and regions. *)
type cell_spec = {
  name : string;
  region : Nvm.region;
  kind : Nvm.kind;
  bytes : int;
  init : int;
}

let specs =
  [
    { name = "app.a"; region = Nvm.Application; kind = Nvm.Fram; bytes = 4; init = 0 };
    { name = "app.b"; region = Nvm.Application; kind = Nvm.Fram; bytes = 2; init = 7 };
    { name = "mon.m"; region = Nvm.Monitor; kind = Nvm.Fram; bytes = 8; init = -1 };
    { name = "rt.r"; region = Nvm.Runtime; kind = Nvm.Fram; bytes = 2; init = 3 };
    { name = "rt.scratch"; region = Nvm.Runtime; kind = Nvm.Ram; bytes = 2; init = 5 };
  ]

let n_cells = List.length specs
let spec i = List.nth specs i

(* The pure model: committed values, pending tx values, tx flag. *)
type model = {
  committed : int array;
  pending : int option array;
  mutable tx_open : bool;
}

let model_create () =
  {
    committed = Array.of_list (List.map (fun s -> s.init) specs);
    pending = Array.make n_cells None;
    tx_open = false;
  }

let model_read m i =
  match m.pending.(i) with Some v when m.tx_open -> v | _ -> m.committed.(i)

type op =
  | Write of int * int
  | Tx_write of int * int
  | Begin_tx
  | Commit_tx
  | Abort_tx
  | Redo_commit  (* capture_tx, drop_tx, then the redo thunks (Alpaca) *)
  | Power_failure

(* Preconditioned application: ops illegal in the current model state
   (double begin, commit outside a tx, tx_write on a volatile cell,
   plain write over a pending tx value) are skipped rather than issued -
   their error behaviour is covered by test_nvm.ml. *)
let model_legal m = function
  | Write (i, _) -> not (m.tx_open && m.pending.(i) <> None)
  | Tx_write (i, _) -> m.tx_open && (spec i).kind = Nvm.Fram
  | Begin_tx -> not m.tx_open
  | Commit_tx | Abort_tx | Redo_commit -> m.tx_open
  | Power_failure -> true

let model_apply m = function
  | Write (i, v) -> m.committed.(i) <- v
  | Tx_write (i, v) -> m.pending.(i) <- Some v
  | Begin_tx -> m.tx_open <- true
  | Commit_tx | Redo_commit ->
      Array.iteri
        (fun i p -> match p with Some v -> m.committed.(i) <- v | None -> ())
        m.pending;
      Array.fill m.pending 0 n_cells None;
      m.tx_open <- false
  | Abort_tx ->
      Array.fill m.pending 0 n_cells None;
      m.tx_open <- false
  | Power_failure ->
      Array.fill m.pending 0 n_cells None;
      m.tx_open <- false;
      List.iteri
        (fun i s -> if s.kind = Nvm.Ram then m.committed.(i) <- s.init)
        specs

let real_apply nvm cells = function
  | Write (i, v) -> Nvm.write cells.(i) v
  | Tx_write (i, v) -> Nvm.tx_write cells.(i) v
  | Begin_tx -> Nvm.begin_tx nvm
  | Commit_tx -> Nvm.commit_tx nvm
  | Abort_tx -> Nvm.abort_tx nvm
  | Redo_commit ->
      let redo = Nvm.capture_tx nvm in
      Nvm.drop_tx nvm;
      List.iter (fun (_, _, apply) -> apply ()) redo
  | Power_failure -> Nvm.power_failure nvm

let op_gen =
  QCheck.Gen.(
    let cell = int_bound (n_cells - 1) in
    let v = int_range (-100) 100 in
    frequency
      [
        (5, map2 (fun i v -> Write (i, v)) cell v);
        (5, map2 (fun i v -> Tx_write (i, v)) cell v);
        (3, return Begin_tx);
        (3, return Commit_tx);
        (1, return Abort_tx);
        (2, return Redo_commit);
        (2, return Power_failure);
      ])

let print_op = function
  | Write (i, v) -> Printf.sprintf "write %s %d" (spec i).name v
  | Tx_write (i, v) -> Printf.sprintf "tx_write %s %d" (spec i).name v
  | Begin_tx -> "begin_tx"
  | Commit_tx -> "commit_tx"
  | Abort_tx -> "abort_tx"
  | Redo_commit -> "redo_commit"
  | Power_failure -> "power_failure"

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_range 1 60) op_gen)

let agrees nvm cells m =
  List.for_all
    (fun i -> Nvm.read cells.(i) = model_read m i)
    (List.init n_cells Fun.id)
  && Nvm.in_tx nvm = m.tx_open

let build_store ?(init = fun i -> (spec i).init) () =
  let nvm = Nvm.create () in
  let cells =
    Array.of_list
      (List.mapi
         (fun i s ->
           Nvm.cell nvm ~region:s.region ~kind:s.kind ~name:s.name
             ~bytes:s.bytes (init i))
         specs)
  in
  (nvm, cells)

(* Snapshots memoize each cell's digest until its write version moves.
   A fresh store started at the model's values has no cached digests,
   so its snapshots are what the real store's must equal: committed
   values for [snapshot_region], visible ones for the logical view. *)
let snapshots_agree nvm m =
  let fresh init = fst (build_store ~init ()) in
  let committed = fresh (fun i -> m.committed.(i)) in
  let visible = fresh (model_read m) in
  List.for_all
    (fun region ->
      Nvm.snapshot_region nvm ~region = Nvm.snapshot_region committed ~region
      && Nvm.snapshot_region_logical nvm ~region
         = Nvm.snapshot_region_logical visible ~region)
    [ Nvm.Runtime; Nvm.Monitor; Nvm.Application; Nvm.Staging ]

let model_equivalence =
  QCheck.Test.make ~name:"nvm = pure model (visibility and rollback)"
    ~count:1000 arb_ops (fun ops ->
      let nvm, cells = build_store () in
      let m = model_create () in
      List.for_all
        (fun op ->
          if model_legal m op then begin
            real_apply nvm cells op;
            model_apply m op
          end;
          agrees nvm cells m && snapshots_agree nvm m)
        ops)

(* The footprint is a declaration-time property: no operation sequence
   may ever change what [footprint] or [cell_names] report. *)
let footprint_stability =
  QCheck.Test.make ~name:"footprint invariant under any operations" ~count:300
    arb_ops (fun ops ->
      let expected_fram region =
        List.filter (fun s -> s.kind = Nvm.Fram && s.region = region) specs
        |> List.fold_left (fun acc s -> acc + s.bytes) 0
      in
      let expected_names region =
        List.filter (fun s -> s.region = region) specs
        |> List.map (fun s -> s.name)
      in
      let nvm, cells = build_store () in
      let m = model_create () in
      List.iter
        (fun op ->
          if model_legal m op then begin
            real_apply nvm cells op;
            model_apply m op
          end)
        ops;
      List.for_all
        (fun region ->
          Nvm.footprint nvm ~kind:Nvm.Fram ~region = expected_fram region
          && Nvm.cell_names nvm ~region = expected_names region)
        [ Nvm.Application; Nvm.Monitor; Nvm.Runtime ])

(* write_join must behave as tx_write inside an open FRAM transaction and
   as a plain write outside one. *)
let write_join_equivalence =
  QCheck.Test.make ~name:"write_join = tx_write inside tx, write outside"
    ~count:500 arb_ops (fun ops ->
      let nvm, cells = build_store () in
      let m = model_create () in
      List.for_all
        (fun op ->
          let joined =
            match op with
            | Write (i, v) | Tx_write (i, v) ->
                (* reinterpret both as write_join, mirroring its contract
                   in the model *)
                let volatile = (spec i).kind = Nvm.Ram in
                if m.tx_open && not volatile then begin
                  Nvm.write_join cells.(i) v;
                  model_apply m (Tx_write (i, v));
                  true
                end
                else if not (m.tx_open && m.pending.(i) <> None) then begin
                  Nvm.write_join cells.(i) v;
                  model_apply m (Write (i, v));
                  true
                end
                else false
            | other ->
                if model_legal m other then begin
                  real_apply nvm cells other;
                  model_apply m other
                end;
                true
          in
          ignore joined;
          agrees nvm cells m)
        ops)

let suite =
  [
    QCheck_alcotest.to_alcotest model_equivalence;
    QCheck_alcotest.to_alcotest footprint_stability;
    QCheck_alcotest.to_alcotest write_join_equivalence;
  ]
