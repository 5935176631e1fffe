open Artemis

let test_write_through () =
  let nvm = Nvm.create () in
  let c = Nvm.cell nvm ~region:Nvm.Monitor ~name:"x" ~bytes:4 0 in
  Nvm.write c 7;
  Alcotest.(check int) "visible" 7 (Nvm.read c);
  Nvm.power_failure nvm;
  Alcotest.(check int) "survives failure" 7 (Nvm.read c)

let test_tx_commit () =
  let nvm = Nvm.create () in
  let c = Nvm.cell nvm ~region:Nvm.Application ~name:"x" ~bytes:4 0 in
  Nvm.begin_tx nvm;
  Nvm.tx_write c 1;
  Alcotest.(check int) "read own writes" 1 (Nvm.read c);
  Nvm.tx_write c 2;
  Nvm.commit_tx nvm;
  Alcotest.(check int) "committed" 2 (Nvm.read c);
  Nvm.power_failure nvm;
  Alcotest.(check int) "durable" 2 (Nvm.read c)

let test_tx_abort_on_power_failure () =
  let nvm = Nvm.create () in
  let c = Nvm.cell nvm ~region:Nvm.Application ~name:"x" ~bytes:4 10 in
  Nvm.begin_tx nvm;
  Nvm.tx_write c 99;
  Nvm.power_failure nvm;
  Alcotest.(check int) "rolled back" 10 (Nvm.read c);
  Alcotest.(check bool) "tx closed" false (Nvm.in_tx nvm)

let test_ram_reset () =
  let nvm = Nvm.create () in
  let r = Nvm.cell nvm ~region:Nvm.Runtime ~kind:Nvm.Ram ~name:"scratch" ~bytes:2 5 in
  Nvm.write r 42;
  Nvm.power_failure nvm;
  Alcotest.(check int) "volatile reset to initial" 5 (Nvm.read r)

let test_mixed_write_disciplines_rejected () =
  let nvm = Nvm.create () in
  let c = Nvm.cell nvm ~region:Nvm.Application ~name:"x" ~bytes:4 0 in
  Nvm.begin_tx nvm;
  Nvm.tx_write c 1;
  Alcotest.check_raises "direct write with pending tx value"
    (Invalid_argument "Nvm.write: cell \"x\" has an uncommitted tx value")
    (fun () -> Nvm.write c 2);
  Nvm.abort_tx nvm

let test_tx_discipline_errors () =
  let nvm = Nvm.create () in
  let c = Nvm.cell nvm ~region:Nvm.Application ~name:"x" ~bytes:4 0 in
  Alcotest.check_raises "tx_write outside tx"
    (Invalid_argument "Nvm.tx_write: no open transaction") (fun () ->
      Nvm.tx_write c 1);
  Alcotest.check_raises "commit outside tx"
    (Invalid_argument "Nvm.commit_tx: no open transaction") (fun () ->
      Nvm.commit_tx nvm);
  Nvm.begin_tx nvm;
  Alcotest.check_raises "nested tx"
    (Invalid_argument "Nvm.begin_tx: transaction already open") (fun () ->
      Nvm.begin_tx nvm);
  Nvm.abort_tx nvm;
  let r = Nvm.cell nvm ~region:Nvm.Runtime ~kind:Nvm.Ram ~name:"r" ~bytes:1 0 in
  Nvm.begin_tx nvm;
  Alcotest.check_raises "tx_write on volatile cell"
    (Invalid_argument "Nvm.tx_write: cell \"r\" is volatile") (fun () ->
      Nvm.tx_write r 1);
  Nvm.abort_tx nvm

let test_duplicate_cells_rejected () =
  let nvm = Nvm.create () in
  ignore (Nvm.cell nvm ~region:Nvm.Monitor ~name:"x" ~bytes:1 ());
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Nvm.cell: duplicate cell \"x\"") (fun () ->
      ignore (Nvm.cell nvm ~region:Nvm.Monitor ~name:"x" ~bytes:1 ()));
  (* same name in another region is fine *)
  ignore (Nvm.cell nvm ~region:Nvm.Runtime ~name:"x" ~bytes:1 ())

let test_footprint_accounting () =
  let nvm = Nvm.create () in
  ignore (Nvm.cell nvm ~region:Nvm.Monitor ~name:"a" ~bytes:4 ());
  ignore (Nvm.cell nvm ~region:Nvm.Monitor ~name:"b" ~bytes:8 ());
  ignore (Nvm.cell nvm ~region:Nvm.Runtime ~name:"c" ~bytes:2 ());
  ignore (Nvm.cell nvm ~region:Nvm.Runtime ~kind:Nvm.Ram ~name:"d" ~bytes:2 ());
  Alcotest.(check int) "monitor fram" 12
    (Nvm.footprint nvm ~kind:Nvm.Fram ~region:Nvm.Monitor);
  Alcotest.(check int) "runtime fram" 2
    (Nvm.footprint nvm ~kind:Nvm.Fram ~region:Nvm.Runtime);
  Alcotest.(check int) "runtime ram" 2
    (Nvm.footprint nvm ~kind:Nvm.Ram ~region:Nvm.Runtime);
  Alcotest.(check (list string)) "names in order" [ "a"; "b" ]
    (Nvm.cell_names nvm ~region:Nvm.Monitor)

(* [snapshot_region] returns its previous list until the region's
   version moves; a cell registered after a snapshot must move it. *)
let test_snapshot_sees_new_cells () =
  let nvm = Nvm.create () in
  ignore (Nvm.cell nvm ~region:Nvm.Application ~name:"a" ~bytes:4 0);
  ignore (Nvm.snapshot_region nvm ~region:Nvm.Application);
  ignore (Nvm.cell nvm ~region:Nvm.Application ~name:"b" ~bytes:4 0);
  Alcotest.(check (list string)) "registered after the snapshot" [ "a"; "b" ]
    (List.map fst (Nvm.snapshot_region nvm ~region:Nvm.Application))

let test_snapshot_memo () =
  let nvm = Nvm.create () in
  let app = Nvm.cell nvm ~region:Nvm.Application ~name:"app" ~bytes:4 0 in
  let mon = Nvm.cell nvm ~region:Nvm.Monitor ~name:"mon" ~bytes:4 0 in
  let snap () = Nvm.snapshot_region nvm ~region:Nvm.Application in
  let s0 = snap () in
  let same what = Alcotest.(check bool) what true (snap () == s0) in
  Nvm.write mon 1;
  same "monitor write";
  Nvm.begin_tx nvm;
  Nvm.tx_write mon 2;
  Nvm.commit_tx nvm;
  same "committed monitor tx_write";
  Nvm.begin_tx nvm;
  Nvm.tx_write app 3;
  same "uncommitted application tx_write";
  Nvm.abort_tx nvm;
  same "aborted transaction";
  Nvm.begin_tx nvm;
  Nvm.tx_write app 4;
  Nvm.commit_tx nvm;
  let s1 = snap () in
  Alcotest.(check bool) "committed application write: new list" false
    (s1 == s0);
  Alcotest.(check bool) "with the new digest" false (s1 = s0)

(* Random interleavings of transactional ops and power failures never leak
   uncommitted state: after every failure, reads equal the last committed
   value. *)
let atomicity_qcheck =
  let open QCheck in
  let op = Gen.oneofl [ `Tx_write; `Commit; `Failure ] in
  Test.make ~name:"tx atomicity under random failures" ~count:300
    (make Gen.(list_size (int_range 1 40) (pair op (int_bound 100))))
    (fun ops ->
      let nvm = Nvm.create () in
      let cell = Nvm.cell nvm ~region:Nvm.Application ~name:"x" ~bytes:4 0 in
      let committed = ref 0 in
      let pending = ref None in
      List.iter
        (fun (op, v) ->
          match op with
          | `Tx_write ->
              if not (Nvm.in_tx nvm) then Nvm.begin_tx nvm;
              Nvm.tx_write cell v;
              pending := Some v
          | `Commit ->
              if Nvm.in_tx nvm then begin
                Nvm.commit_tx nvm;
                (match !pending with Some v -> committed := v | None -> ());
                pending := None
              end
          | `Failure ->
              Nvm.power_failure nvm;
              pending := None)
        ops;
      if Nvm.in_tx nvm then Nvm.power_failure nvm;
      Nvm.read cell = !committed)

let suite =
  [
    Alcotest.test_case "write-through persistence" `Quick test_write_through;
    Alcotest.test_case "transaction commit" `Quick test_tx_commit;
    Alcotest.test_case "power failure aborts tx" `Quick test_tx_abort_on_power_failure;
    Alcotest.test_case "RAM cells reset on failure" `Quick test_ram_reset;
    Alcotest.test_case "mixed disciplines rejected" `Quick
      test_mixed_write_disciplines_rejected;
    Alcotest.test_case "transaction discipline errors" `Quick
      test_tx_discipline_errors;
    Alcotest.test_case "duplicate cells rejected" `Quick
      test_duplicate_cells_rejected;
    Alcotest.test_case "footprint accounting" `Quick test_footprint_accounting;
    Alcotest.test_case "snapshot sees cells registered after it" `Quick
      test_snapshot_sees_new_cells;
    Alcotest.test_case "snapshot memo follows the region's writes" `Quick
      test_snapshot_memo;
    QCheck_alcotest.to_alcotest atomicity_qcheck;
  ]
