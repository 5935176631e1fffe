(* Work-stealing parallel map over OCaml 5 domains.

   The index space [0, n) is split evenly into one contiguous range per
   worker.  A worker repeatedly takes a chunk off the front of its own
   range; when the range is empty it steals the upper half of the
   largest remaining range.  All ranges live behind one mutex - take
   operations are two integer updates, so the lock is never contended
   for long and the scheme needs no atomics or lock-free queues.

   Two scaling bugs fixed in PR 8 (BENCH_PR5 measured jobs=8 at 2.2x the
   jobs=1 wall time on one core):

   - the default chunk was 1, so every mapped item took the global mutex
     once; under contention each blocked lock is a futex round-trip, and
     on an oversubscribed machine it is a scheduler quantum.  The chunk
     now defaults to ~n/(jobs*8) so the whole map costs O(jobs) lock
     operations while steals can still rebalance tails.
   - [jobs] was taken literally, so asking for more workers than the
     machine has cores spawned domains that can only time-slice - and
     every minor GC then waits for all of them to reach a safepoint.
     Effective parallelism is now capped at
     [Domain.recommended_domain_count]; results are written at their
     input index, so the output is identical either way.

   Results land in a preallocated array at their input index, so the
   output order is independent of the (nondeterministic) execution
   order - this is what lets the parallel campaign runner produce
   byte-identical reports. *)

type range = { mutable lo : int; mutable hi : int }  (* [lo, hi) *)

let recommended_jobs () = Domain.recommended_domain_count ()

let jobs_of_flag ~prog jobs =
  if jobs < 0 then
    Error
      (Printf.sprintf "%s: --jobs must be 0 (auto) or positive (got %d)" prog
         jobs)
  else if jobs = 0 then Ok (recommended_jobs ())
  else Ok jobs

(* One lock operation per ~1/8 of a worker's even share: coarse enough
   that the mutex disappears from profiles, fine enough that stealing
   can still even out a skewed tail. *)
let auto_chunk ~jobs n = max 1 (n / (jobs * 8))

let map ~jobs ?chunk n f =
  if jobs < 1 then invalid_arg "Par.map: jobs must be >= 1";
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Par.map: chunk must be >= 1"
  | _ -> ());
  if n < 0 then invalid_arg "Par.map: negative size";
  let jobs = min (min jobs n) (max 1 (recommended_jobs ())) in
  if n = 0 then [||]
  else if jobs <= 1 then Array.init n f
  else begin
    let chunk =
      match chunk with Some c -> c | None -> auto_chunk ~jobs n
    in
    let results = Array.make n None in
    let mu = Mutex.create () in
    let failed : (exn * Printexc.raw_backtrace) option ref = ref None in
    let ranges =
      Array.init jobs (fun w ->
          { lo = w * n / jobs; hi = (w + 1) * n / jobs })
    in
    let take w =
      Mutex.lock mu;
      let r = ranges.(w) in
      if !failed <> None then begin
        Mutex.unlock mu;
        None
      end
      else begin
        (if r.lo >= r.hi then begin
           (* own range drained: steal the upper half of the fattest one *)
           let victim = ref (-1) and best = ref 0 in
           Array.iteri
             (fun i v ->
               let left = v.hi - v.lo in
               if left > !best then begin
                 best := left;
                 victim := i
               end)
             ranges;
           if !victim >= 0 then begin
             let v = ranges.(!victim) in
             let mid = v.lo + ((v.hi - v.lo) / 2) in
             r.lo <- mid;
             r.hi <- v.hi;
             v.hi <- mid
           end
         end);
        if r.lo >= r.hi then begin
          Mutex.unlock mu;
          None
        end
        else begin
          let lo = r.lo in
          let hi = min (lo + chunk) r.hi in
          r.lo <- hi;
          Mutex.unlock mu;
          Some (lo, hi)
        end
      end
    in
    let record_failure exn bt =
      Mutex.lock mu;
      if !failed = None then failed := Some (exn, bt);
      Mutex.unlock mu
    in
    let rec worker w =
      match take w with
      | None -> ()
      | Some (lo, hi) ->
          (try
             for i = lo to hi - 1 do
               results.(i) <- Some (f i)
             done
           with exn ->
             let bt = Printexc.get_raw_backtrace () in
             record_failure exn bt);
          worker w
    in
    let domains =
      Array.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
    in
    worker 0;
    Array.iter Domain.join domains;
    (match !failed with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ());
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* every index was executed or we raised *))
      results
  end

let map_list ~jobs ?chunk f xs =
  let arr = Array.of_list xs in
  Array.to_list (map ~jobs ?chunk (Array.length arr) (fun i -> f arr.(i)))
