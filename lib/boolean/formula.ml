type t =
  | True
  | False
  | Var of int
  | Not of t
  | And of t list
  | Or of t list

let tru = True
let fls = False
let var x = Var x

let rank = function
  | True -> 0
  | False -> 1
  | Var _ -> 2
  | Not _ -> 3
  | And _ -> 4
  | Or _ -> 5

let rec compare a b =
  match a, b with
  | True, True | False, False -> 0
  | Var x, Var y -> Int.compare x y
  | Not f, Not g -> compare f g
  | And fs, And gs | Or fs, Or gs -> List.compare compare fs gs
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Full structural hash (the polymorphic [Hashtbl.hash] only samples a
   bounded prefix, which collides badly on large lineages). One pass, no
   allocation — cheaper to build than a serialised string key and equally
   discriminating when paired with [equal] in a hashtable. *)
let hash f =
  let mix h v = (h * 486187739) + v land max_int in
  let rec go h = function
    | True -> mix h 1
    | False -> mix h 2
    | Var x -> mix (mix h 3) x
    | Not f -> go (mix h 5) f
    | And fs -> mix (List.fold_left go (mix h 7) fs) 11
    | Or fs -> mix (List.fold_left go (mix h 13) fs) 17
  in
  go 0 f land max_int

let neg = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

(* Shared n-ary constructor: [absorbing] kills the whole expression, [unit_]
   disappears; complementary children collapse to [absorbing]. *)
let nary ~absorbing ~unit_ ~flatten ~wrap children =
  let rec gather acc = function
    | [] -> Some acc
    | c :: rest -> (
        match c with
        | c when equal c absorbing -> None
        | c when equal c unit_ -> gather acc rest
        | c -> (
            match flatten c with
            | Some inner -> gather (List.rev_append inner acc) rest
            | None -> gather (c :: acc) rest))
  in
  match gather [] children with
  | None -> absorbing
  | Some children -> (
      let children = List.sort_uniq compare children in
      (* a complementary pair is some [Not g] next to [g] *)
      let complement = function
        | Not g -> List.exists (equal g) children
        | _ -> false
      in
      if List.exists complement children then absorbing
      else
        match children with
        | [] -> unit_
        | [ c ] -> c
        | cs -> wrap cs)

let conj fs =
  nary ~absorbing:False ~unit_:True
    ~flatten:(function And fs -> Some fs | _ -> None)
    ~wrap:(fun cs -> And cs)
    fs

let disj fs =
  nary ~absorbing:True ~unit_:False
    ~flatten:(function Or fs -> Some fs | _ -> None)
    ~wrap:(fun cs -> Or cs)
    fs

let conj2 a b = conj [ a; b ]
let disj2 a b = disj [ a; b ]
let implies a b = disj2 (neg a) b
let iff a b = conj2 (implies a b) (implies b a)

module Iset = Set.Make (Int)

let rec vars_set = function
  | True | False -> Iset.empty
  | Var x -> Iset.singleton x
  | Not f -> vars_set f
  | And fs | Or fs ->
      List.fold_left (fun acc f -> Iset.union acc (vars_set f)) Iset.empty fs

let vars f = Iset.elements (vars_set f)
let var_count f = Iset.cardinal (vars_set f)

let rec size = function
  | True | False | Var _ -> 1
  | Not f -> 1 + size f
  | And fs | Or fs -> List.fold_left (fun acc f -> acc + size f) 1 fs

let rec eval assignment = function
  | True -> true
  | False -> false
  | Var x -> assignment x
  | Not f -> not (eval assignment f)
  | And fs -> List.for_all (eval assignment) fs
  | Or fs -> List.exists (eval assignment) fs

let rec substitute subst = function
  | True -> True
  | False -> False
  | Var x as f -> ( match subst x with Some g -> g | None -> f)
  | Not f -> neg (substitute subst f)
  | And fs -> conj (List.map (substitute subst) fs)
  | Or fs -> disj (List.map (substitute subst) fs)

let condition x b f =
  substitute (fun y -> if y = x then Some (if b then True else False) else None) f

let rec nnf = function
  | (True | False | Var _) as f -> f
  | And fs -> conj (List.map nnf fs)
  | Or fs -> disj (List.map nnf fs)
  | Not f -> (
      match f with
      | True -> False
      | False -> True
      | Var _ -> Not f
      | Not g -> nnf g
      | And fs -> disj (List.map (fun g -> nnf (Not g)) fs)
      | Or fs -> conj (List.map (fun g -> nnf (Not g)) fs))

let rec is_positive = function
  | True | False | Var _ -> true
  | Not _ -> false
  | And fs | Or fs -> List.for_all is_positive fs

let is_syntactically_read_once f =
  let seen = Hashtbl.create 16 in
  let rec go = function
    | True | False -> true
    | Var x ->
        if Hashtbl.mem seen x then false
        else begin
          Hashtbl.add seen x ();
          true
        end
    | Not f -> go f
    | And fs | Or fs -> List.for_all go fs
  in
  go f

(* DNF clauses are strictly increasing int lists. [absorb] deduplicates,
   then visits clauses by length: a clause is kept unless a kept clause is a
   subset of it. A subset's smallest variable occurs in the superset, so
   kept clauses are indexed by their head and a candidate only tests those
   headed by one of its own variables, by a sorted merge. *)
let rec sorted_subset small big =
  match small, big with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys ->
      if x = y then sorted_subset xs ys
      else if x > y then sorted_subset small ys
      else false

let absorb ?(guard = Probdb_guard.Guard.unlimited) clauses =
  match List.sort_uniq (List.compare Int.compare) clauses with
  | ([] | [ _ ]) as clauses -> clauses
  | [] :: _ -> [ [] ] (* the empty clause sorts first and subsumes all *)
  | clauses ->
      let arr = Array.of_list clauses in
      let by_length =
        List.stable_sort
          (fun (la, _) (lb, _) -> Int.compare la lb)
          (List.mapi (fun i c -> (List.length c, i)) clauses)
      in
      let kept = Array.make (Array.length arr) false in
      let by_head = Hashtbl.create 64 in
      let heads v = Option.value ~default:[] (Hashtbl.find_opt by_head v) in
      let ticks = ref 0 in
      List.iter
        (fun (_, i) ->
          Probdb_guard.Guard.tick guard ~site:"dnf.absorb" ticks;
          let c = arr.(i) in
          if not (List.exists (fun v -> List.exists (fun k -> sorted_subset k c) (heads v)) c)
          then begin
            kept.(i) <- true;
            let v = List.hd c in
            Hashtbl.replace by_head v (c :: heads v)
          end)
        by_length;
      List.filteri (fun i _ -> kept.(i)) clauses

let to_dnf f =
  if not (is_positive f) then invalid_arg "Formula.to_dnf: formula is not positive";
  let product cs ds =
    List.concat_map
      (fun c -> List.map (fun d -> List.sort_uniq Int.compare (c @ d)) ds)
      cs
  in
  let rec go = function
    | True -> [ [] ]
    | False -> []
    | Var x -> [ [ x ] ]
    | Not _ -> assert false
    | Or fs -> absorb (List.concat_map go fs)
    | And fs ->
        absorb
          (List.fold_left (fun acc f -> product acc (go f)) [ [] ] fs)
  in
  go f

(* CNF-shape recognition for the clause-database WMC bridge. The smart
   constructors keep values flattened, so one non-recursive pattern match
   per level is exhaustive: a literal, a clause of literals, or a
   conjunction of clauses. *)
let as_literal = function
  | Var v -> Some (v, true)
  | Not (Var v) -> Some (v, false)
  | _ -> None

let as_clause f =
  match as_literal f with
  | Some l -> Some [ l ]
  | None -> (
      match f with
      | Or fs ->
          List.fold_left
            (fun acc g ->
              match acc, as_literal g with
              | Some ls, Some l -> Some (l :: ls)
              | _ -> None)
            (Some []) fs
          |> Option.map List.rev
      | _ -> None)

let as_cnf = function
  | True -> Some []
  | False -> Some [ [] ]
  | And fs ->
      List.fold_left
        (fun acc g ->
          match acc, as_clause g with
          | Some cs, Some c -> Some (c :: cs)
          | _ -> None)
        (Some []) fs
      |> Option.map List.rev
  | f -> Option.map (fun c -> [ c ]) (as_clause f)

let pp ?(label = fun x -> "x" ^ string_of_int x) () ppf f =
  let rec go ppf = function
    | True -> Format.pp_print_string ppf "true"
    | False -> Format.pp_print_string ppf "false"
    | Var x -> Format.pp_print_string ppf (label x)
    | Not f -> Format.fprintf ppf "!%a" atomic f
    | And fs ->
        Format.fprintf ppf "%a"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf " /\\ ")
             atomic)
          fs
    | Or fs ->
        Format.fprintf ppf "%a"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf " \\/ ")
             atomic)
          fs
  and atomic ppf = function
    | (True | False | Var _ | Not _) as f -> go ppf f
    | f -> Format.fprintf ppf "(%a)" go f
  in
  go ppf f

let to_string ?label f = Format.asprintf "%a" (pp ?label ()) f
