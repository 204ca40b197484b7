type t = Value.t list

let compare = List.compare Value.compare
let equal a b = compare a b = 0
let hash t = List.fold_left (fun h v -> (h * 31) + Value.hash v) 17 t land max_int
let arity = List.length

let pp ppf t =
  Format.fprintf ppf "(%a)" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Value.pp) t

let to_string t = Format.asprintf "%a" pp t
let of_ints xs = List.map Value.int xs

let rec all k domain =
  if k = 0 then [ [] ]
  else
    let rest = all (k - 1) domain in
    List.concat_map (fun v -> List.map (fun t -> v :: t) rest) domain

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
