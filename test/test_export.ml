open Artemis

let sample_log () =
  let log = Log.create () in
  Log.record log ~at:Time.zero Event.Boot;
  Log.record log ~at:(Time.of_ms 1)
    (Event.Task_started { task = "a"; attempt = 1 });
  Log.record log ~at:(Time.of_ms 2)
    (Event.Path_restarted { path = 2; reason = "stale, \"old\" data" });
  log

let test_round_event_row () =
  let log = Log.create () in
  Log.record log ~at:(Time.of_sec 1) (Event.Round_completed { round = 2 });
  let csv = Export.log_to_csv log in
  Alcotest.(check bool) "round row present" true
    (let needle = "1000000,round_completed,,,round=2" in
     let n = String.length needle in
     let rec go i = i + n <= String.length csv && (String.sub csv i n = needle || go (i + 1)) in
     go 0)

let test_csv_shape () =
  let csv = Export.log_to_csv (sample_log ()) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 3 rows" 4 (List.length lines);
  Alcotest.(check string) "header" "time_us,event,task,path,detail" (List.hd lines);
  Alcotest.(check string) "boot row" "0,boot,,," (List.nth lines 1);
  Alcotest.(check string) "quoted detail"
    "2000,path_restarted,,2,\"stale, \"\"old\"\" data\"" (List.nth lines 3)

(* Regression: a bare %.3f rendered nan/inf as [nan]/[inf], which no
   JSON parser accepts.  The fleet report (its energy roll-ups included)
   and the Obs metrics JSON render their stats through [Json.float_lit],
   so every non-finite value must come out as null and the document
   must parse. *)
let test_non_finite_stats_json_parses () =
  let stats =
    [ ("nan", Float.nan); ("inf", Float.infinity);
      ("neg_inf", Float.neg_infinity) ]
  in
  List.iter
    (fun (key, f) ->
      Alcotest.(check string) (key ^ " renders as null") "null"
        (Json.float_lit f))
    stats;
  let json =
    "{"
    ^ String.concat ", "
        (List.map
           (fun (key, f) -> Json.quote key ^ ": " ^ Json.float_lit f)
           stats)
    ^ "}"
  in
  match Json.parse json with
  | Ok doc ->
      List.iter
        (fun (key, _) ->
          Alcotest.(check bool) (key ^ " parses as null") true
            (Json.member key doc = Some Json.Null))
        stats
  | Error e -> Alcotest.failf "non-finite stats JSON does not parse: %s" e

let suite =
  [
    Alcotest.test_case "log CSV shape and quoting" `Quick test_csv_shape;
    Alcotest.test_case "round event row" `Quick test_round_event_row;
    Alcotest.test_case "non-finite stats stay valid JSON" `Quick
      test_non_finite_stats_json_parses;
  ]
