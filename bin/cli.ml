(* Command-line pieces the four binaries share.

   A usage error - a bad name, a count out of range, a flag the chosen
   mode cannot take - goes through [usage]: "<prog>: <message>" on
   stderr and exit 2.  Each binary runs its usage checks before any work
   and before it opens an output file, so a rejected invocation prints
   nothing on stdout and leaves every output file untouched.  File input
   and output report a failure as "<prog>: <path>: <reason>" and exit 1
   instead of escaping as an uncaught Sys_error. *)

open Cmdliner

let usage ~prog msg =
  Printf.eprintf "%s: %s\n" prog msg;
  exit 2

(* [Sys_error] from opening a file names the path; from writing, not *)
let fail ~prog path msg =
  let prefix = path ^ ": " in
  Printf.eprintf "%s: %s\n" prog
    (if String.starts_with ~prefix msg then msg else prefix ^ msg);
  exit 1

let read_file ~prog path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> text
  | exception Sys_error msg -> fail ~prog path msg

(* Open for writing now, so a bad path is reported before any long run;
   write and close with [finish_out]. *)
let open_out ~prog path =
  match Out_channel.open_bin path with
  | oc -> (path, oc)
  | exception Sys_error msg -> fail ~prog path msg

let finish_out ~prog (path, oc) write =
  match
    write oc;
    Out_channel.close oc
  with
  | () -> ()
  | exception Sys_error msg ->
      Out_channel.close_noerr oc;
      fail ~prog path msg

let write_file ~prog path write = finish_out ~prog (open_out ~prog path) write

(* [(flag, min, value)] with [min] 0 or 1: the first value below its
   minimum is the usage error "--<flag> must be positive (got N)"
   ("non-negative" for a minimum of 0). *)
let check_ints ~prog checks =
  match List.find_opt (fun (_, min, n) -> n < min) checks with
  | None -> ()
  | Some (flag, min, n) ->
      usage ~prog
        (Printf.sprintf "--%s must be %s (got %d)" flag
           (if min > 0 then "positive" else "non-negative")
           n)

(* --jobs N as a worker count: 0 means one worker per core.  The check
   runs when Cmdliner evaluates the term, before the binary's [run]. *)
let jobs ~prog ~default ~doc =
  let workers n =
    if n < 0 then
      usage ~prog
        (Printf.sprintf "--jobs must be 0 (auto) or positive (got %d)" n)
    else if n = 0 then Artemis.Par.recommended_jobs ()
    else n
  in
  Term.(
    const workers
    $ Arg.(value & opt int default & info [ "jobs" ] ~docv:"N" ~doc))

(* Faultsim catalogue names, all resolved before the caller builds the
   first one; an unknown name is a usage error with the catalogue's own
   message. *)
let scenarios ~prog names =
  List.map
    (fun name ->
      match Artemis_faultsim.Scenario.lookup name with
      | Ok scenario -> scenario
      | Error msg -> usage ~prog msg)
    names

let seed ~doc = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let engine ~doc =
  Arg.(
    value
    & opt (some (enum Artemis.Monitor.engines)) None
    & info [ "engine" ] ~docv:"ENGINE" ~doc)
