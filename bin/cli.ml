(* Command-line pieces the four binaries share: file input and output
   that report a failure as "<prog>: <path>: <reason>" and exit 1
   instead of escaping as an uncaught Sys_error, the integer-flag range
   check, and the --seed and --engine terms. *)

open Cmdliner

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
  | oc -> oc
  | exception Sys_error msg -> fail ~prog path msg

let finish_out ~prog path oc write =
  match
    write oc;
    Out_channel.close oc
  with
  | () -> ()
  | exception Sys_error msg ->
      Out_channel.close_noerr oc;
      fail ~prog path msg

let write_file ~prog path write = finish_out ~prog path (open_out ~prog path) write

(* [(flag, min, value)] with [min] 0 or 1: the first value below its
   minimum as the usage message "<prog>: --<flag> must be positive (got
   N)" ("non-negative" for a minimum of 0), which the binaries print and
   exit 2 on, as they do for --jobs. *)
let check_ints ~prog checks =
  match List.find_opt (fun (_, min, n) -> n < min) checks with
  | None -> Ok ()
  | Some (flag, min, n) ->
      Error
        (Printf.sprintf "%s: --%s must be %s (got %d)" prog flag
           (if min > 0 then "positive" else "non-negative")
           n)

let seed ~doc = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let engine ~doc =
  Arg.(
    value
    & opt (some (enum Artemis.Monitor.engines)) None
    & info [ "engine" ] ~docv:"ENGINE" ~doc)
