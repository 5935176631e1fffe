type energy = float
type power = float

let zero = 0.
let uj e = e
let mj e = e *. 1e3
let to_uj e = e
let to_mj e = e /. 1e3
let uw p = p
let mw p = p *. 1e3
let to_uw p = p
let add = ( +. )
let sub a b = Float.max 0. (a -. b)
let sub_exact a b = a -. b
let scale e k = e *. k
let compare = Float.compare
let ( <= ) (a : energy) b = Stdlib.( <= ) a b
let ( < ) (a : energy) b = Stdlib.( < ) a b
let ( >= ) (a : energy) b = Stdlib.( >= ) a b
let min = Float.min
let consumed p dt = p *. Time.to_sec_f dt

let time_to_consume p e =
  if Stdlib.( <= ) p 0. then invalid_arg "Energy.time_to_consume: non-positive power";
  Time.of_sec_f (e /. p)

let add_power = ( +. )

let pp_energy ppf e =
  if Stdlib.( < ) (Float.abs e) 1e3 then Format.fprintf ppf "%.2fuJ" e
  else if Stdlib.( < ) (Float.abs e) 1e6 then Format.fprintf ppf "%.3fmJ" (e /. 1e3)
  else Format.fprintf ppf "%.4fJ" (e /. 1e6)
