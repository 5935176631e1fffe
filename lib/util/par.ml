(* Parallel map over OCaml 5 domains.

   Every worker claims the next index off one shared atomic counter, one
   item at a time, until the counter passes [n].  A claim is a single
   fetch-and-add, so a fleet of sub-millisecond devices pays one atomic
   operation per device, and a worker that goes idle always takes the
   next item: a skewed tail balances itself.

   [jobs] is capped at [Domain.recommended_domain_count]: asking for more
   workers than the machine has cores spawns domains that can only
   time-slice - and every minor GC then waits for all of them to reach a
   safepoint (jobs=8 on one core once measured 2.2x the jobs=1 wall
   time).

   Results land in a preallocated array at their input index, so the
   output order is independent of the (nondeterministic) execution
   order - this is what lets the parallel campaign runner produce
   byte-identical reports. *)

let recommended_jobs () = Domain.recommended_domain_count ()

let map ~jobs n f =
  if jobs < 1 then invalid_arg "Par.map: jobs must be >= 1";
  if n < 0 then invalid_arg "Par.map: negative size";
  let jobs = min (min jobs n) (max 1 (recommended_jobs ())) in
  if jobs <= 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failed : (exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && Option.is_none (Atomic.get failed) then begin
        (match f i with
        | v -> results.(i) <- Some v
        | exception exn ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failed None (Some (exn, bt))));
        worker ()
      end
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    match Atomic.get failed with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None ->
        Array.map
          (function
            | Some v -> v
            | None -> assert false (* every index was executed or we raised *))
          results
  end

let map_list ~jobs f xs =
  let arr = Array.of_list xs in
  Array.to_list (map ~jobs (Array.length arr) (fun i -> f arr.(i)))
