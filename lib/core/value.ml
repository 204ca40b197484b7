type t =
  | Int of int
  | Str of string
  | Bool of bool

let rank = function Int _ -> 0 | Str _ -> 1 | Bool _ -> 2

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Int x -> x
  | Str s -> Hashtbl.hash s
  | Bool b -> Bool.to_int b

let to_string = function
  | Int x -> string_of_int x
  | Str s -> s
  | Bool b -> string_of_bool b

let pp ppf v = Format.pp_print_string ppf (to_string v)

let of_string s =
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match s with
      | "true" -> Bool true
      | "false" -> Bool false
      | _ -> Str s)

let int i = Int i
let str s = Str s
