type t = { keys : string array; vals : int array; mask : int }

let sentinel = Bytes.unsafe_to_string (Bytes.create 0)

(* Two loads and two adds - [Hashtbl.hash] walks the whole string and
   costs more than the lookup it feeds.  Collisions only cost extra
   [String.equal] probes, never a wrong answer. *)
let hash s =
  let n = String.length s in
  if n = 0 then 0 else (n * 31) + Char.code (String.unsafe_get s (n - 1))

let build pairs =
  let n = List.length pairs in
  let size =
    let s = ref 8 in
    while !s < 4 * max 1 n do
      s := !s * 2
    done;
    !s
  in
  let m =
    { keys = Array.make size sentinel; vals = Array.make size 0;
      mask = size - 1 }
  in
  List.iter
    (fun (k, v) ->
      let i = ref (hash k land m.mask) in
      while not (m.keys.(!i) == sentinel) do
        i := (!i + 1) land m.mask
      done;
      m.keys.(!i) <- k;
      m.vals.(!i) <- v)
    pairs;
  m

(* a while loop, not a local rec: the closure would allocate *)
let find m key ~default =
  let keys = m.keys and mask = m.mask in
  let i = ref (hash key land mask) in
  let res = ref default in
  let probing = ref true in
  while !probing do
    let k = Array.unsafe_get keys !i in
    if k == sentinel then probing := false
    else if String.equal k key then begin
      res := Array.unsafe_get m.vals !i;
      probing := false
    end
    else i := (!i + 1) land mask
  done;
  !res
