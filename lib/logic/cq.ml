module Sset = Set.Make (String)

type atom = { rel : string; comp : bool; args : Fo.term list }

type t = atom list

let compare_atom a b =
  match String.compare a.rel b.rel with
  | 0 -> (
      match Bool.compare a.comp b.comp with
      | 0 -> List.compare Fo.compare_term a.args b.args
      | c -> c)
  | c -> c

let make atoms = List.sort_uniq compare_atom atoms
let atom ?(comp = false) rel args = { rel; comp; args }
let of_vars ?comp rel vars = atom ?comp rel (List.map (fun v -> Fo.Var v) vars)
let compare = List.compare compare_atom
let equal_syntactic a b = compare a b = 0

let atom_vars a =
  List.filter_map (function Fo.Var x -> Some x | Fo.Const _ -> None) a.args

let vars q = List.concat_map atom_vars q |> List.sort_uniq String.compare

let symbols q =
  List.map (fun a -> (a.rel, a.comp)) q
  |> List.sort_uniq (fun (r1, c1) (r2, c2) ->
         match String.compare r1 r2 with 0 -> Bool.compare c1 c2 | c -> c)

let rel_names q = List.map (fun a -> a.rel) q |> List.sort_uniq String.compare
let is_ground q = vars q = []

let atoms_of_var q x = List.filter (fun a -> List.mem x (atom_vars a)) q

let is_hierarchical q =
  let module Aset = Set.Make (struct
    type nonrec t = atom

    let compare = compare_atom
  end) in
  let atom_sets = List.map (fun x -> Aset.of_list (atoms_of_var q x)) (vars q) in
  let ok s1 s2 =
    Aset.subset s1 s2 || Aset.subset s2 s1 || Aset.is_empty (Aset.inter s1 s2)
  in
  List.for_all (fun s1 -> List.for_all (ok s1) atom_sets) atom_sets

let is_self_join_free q =
  let names = List.map (fun a -> a.rel) q in
  List.length names = List.length (List.sort_uniq String.compare names)

let map_args f q = make (List.map (fun a -> { a with args = List.map f a.args }) q)

let subst_const x v q =
  map_args (function Fo.Var y when String.equal x y -> Fo.Const v | t -> t) q

let rename_var x y q =
  map_args (function Fo.Var z when String.equal x z -> Fo.Var y | t -> t) q

let standardize_apart ~avoid q =
  let avoid = ref (Sset.of_list avoid) in
  let renaming =
    List.map
      (fun x ->
        let rec fresh base i =
          let cand = if i = 0 then base else Printf.sprintf "%s_%d" base i in
          if Sset.mem cand !avoid then fresh base (i + 1)
          else begin
            avoid := Sset.add cand !avoid;
            cand
          end
        in
        (x, fresh x 0))
      (vars q)
  in
  map_args
    (function
      | Fo.Var x -> Fo.Var (List.assoc x renaming)
      | t -> t)
    q

let conjoin q1 q2 =
  let q2 = standardize_apart ~avoid:(vars q1) q2 in
  make (q1 @ q2)

let connected_components q =
  (* Union-find over atom indices, linking atoms that share a variable. *)
  let atoms = Array.of_list q in
  let n = Array.length atoms in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri, rj = find i, find j in
    if ri <> rj then parent.(ri) <- rj
  in
  let var_home = Hashtbl.create 16 in
  Array.iteri
    (fun i a ->
      List.iter
        (fun x ->
          match Hashtbl.find_opt var_home x with
          | Some j -> union i j
          | None -> Hashtbl.add var_home x i)
        (atom_vars a))
    atoms;
  let groups = Hashtbl.create 8 in
  Array.iteri
    (fun i a ->
      let r = find i in
      Hashtbl.replace groups r (a :: (Option.value ~default:[] (Hashtbl.find_opt groups r))))
    atoms;
  Hashtbl.fold (fun _ atoms acc -> make atoms :: acc) groups []
  |> List.sort compare

let homomorphism ~from ~into =
  (* Backtracking search for a map h from vars(from) to terms(into) sending
     every atom of [from] onto some atom of [into]. *)
  let candidates a =
    List.filter
      (fun b ->
        String.equal a.rel b.rel && a.comp = b.comp
        && List.length a.args = List.length b.args)
      into
  in
  let rec match_args env pairs =
    match pairs with
    | [] -> Some env
    | (Fo.Const u, Fo.Const v) :: rest ->
        if Probdb_core.Value.equal u v then match_args env rest else None
    | (Fo.Const _, Fo.Var _) :: _ -> None
    | (Fo.Var x, tgt) :: rest -> (
        match List.assoc_opt x env with
        | Some t -> if Fo.compare_term t tgt = 0 then match_args env rest else None
        | None -> match_args ((x, tgt) :: env) rest)
  in
  let rec go env = function
    | [] -> Some env
    | a :: rest ->
        let rec try_candidates = function
          | [] -> None
          | b :: bs -> (
              match match_args env (List.combine a.args b.args) with
              | Some env' -> (
                  match go env' rest with Some e -> Some e | None -> try_candidates bs)
              | None -> try_candidates bs)
        in
        try_candidates (candidates a)
  in
  go [] from

let contained q1 q2 = Option.is_some (homomorphism ~from:q2 ~into:q1)
let equivalent q1 q2 = contained q1 q2 && contained q2 q1

let minimize q =
  (* Retract one atom at a time: q ≡ q \ {a} iff there is a homomorphism
     from q into q \ {a} (the inclusion gives the converse direction). *)
  let rec shrink q =
    let try_drop a =
      let q' = List.filter (fun b -> not (compare_atom a b = 0)) q in
      if q' <> [] && Option.is_some (homomorphism ~from:q ~into:q') then Some q'
      else None
    in
    match List.find_map try_drop q with Some q' -> shrink q' | None -> q
  in
  shrink q

(* ---------- valuations over listed facts ---------- *)

module Value = Probdb_core.Value
module Tuple = Probdb_core.Tuple
module Guard = Probdb_guard.Guard

module Tuple_tbl = Hashtbl.Make (Tuple)

(* Per relation: the positions of its facts in listing order, and by
   tuple. *)
type rel = { mutable rows : (Tuple.t * int) list; by_tuple : int Tuple_tbl.t }

type facts = (string, rel) Hashtbl.t

let index facts =
  let index = Hashtbl.create 8 in
  for i = Array.length facts - 1 downto 0 do
    let rel, tuple = facts.(i) in
    let r =
      match Hashtbl.find_opt index rel with
      | Some r -> r
      | None ->
          let r = { rows = []; by_tuple = Tuple_tbl.create 64 } in
          Hashtbl.replace index rel r;
          r
    in
    r.rows <- (tuple, i) :: r.rows;
    Tuple_tbl.replace r.by_tuple tuple i
  done;
  index

let find index rel tuple =
  Option.bind (Hashtbl.find_opt index rel) (fun r -> Tuple_tbl.find_opt r.by_tuple tuple)

let join ?(guard = Guard.unlimited) index q yield =
  if List.exists (fun a -> a.comp) q then invalid_arg "Cq.join: complemented atom";
  (* an atom over a relation with no listed facts matches nothing *)
  if List.for_all (fun a -> Hashtbl.mem index a.rel) q then begin
    let atoms = Array.of_list (List.map (fun a -> (a, Hashtbl.find index a.rel)) q) in
    (* Which variables are bound depends only on which atoms matched
       before, so the order is fixed up front: next the atom with the most
       bound arguments, ties to the earliest. With all arguments bound an
       atom costs one lookup, otherwise a scan of its relation. *)
    let rec order bound = function
      | [] -> []
      | i :: _ as left ->
          let known = function Fo.Var x -> List.mem x bound | Fo.Const _ -> true in
          let rank j = List.length (List.filter known (fst atoms.(j)).args) in
          let i = List.fold_left (fun b j -> if rank j > rank b then j else b) i left in
          let a, _ = atoms.(i) in
          (i, List.for_all known a.args)
          :: order (atom_vars a @ bound) (List.filter (( <> ) i) left)
    in
    let chosen = Array.make (Array.length atoms) 0 in
    let ticks = ref 0 in
    let value env = function Fo.Const v -> v | Fo.Var x -> List.assoc x env in
    let rec bind env args tuple =
      match args, tuple with
      | [], [] -> Some env
      | Fo.Var x :: args, w :: tuple when not (List.mem_assoc x env) ->
          bind ((x, w) :: env) args tuple
      | t :: args, w :: tuple when Value.equal (value env t) w -> bind env args tuple
      | _ -> None
    in
    let rec go env = function
      | [] -> yield (Array.to_list chosen)
      | (i, lookup) :: rest ->
          let a, r = atoms.(i) in
          let found env x =
            chosen.(i) <- x;
            go env rest
          in
          if lookup then begin
            Guard.tick guard ~site:"lineage.dnf" ticks;
            Option.iter (found env) (Tuple_tbl.find_opt r.by_tuple (List.map (value env) a.args))
          end
          else
            List.iter
              (fun (tuple, x) ->
                Guard.tick guard ~site:"lineage.dnf" ticks;
                Option.iter (fun env -> found env x) (bind env a.args tuple))
              r.rows
    in
    go [] (order [] (List.init (Array.length atoms) Fun.id))
  end

let to_fo q =
  let body =
    Fo.conj
      (List.map
         (fun a ->
           let at = Fo.Atom { rel = a.rel; args = a.args } in
           if a.comp then Fo.Not at else at)
         q)
  in
  Fo.exists (vars q) body

let pp ppf q =
  let pp_atom ppf a =
    Format.fprintf ppf "%s%s(%a)"
      (if a.comp then "!" else "")
      a.rel
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Fo.pp_term)
      a.args
  in
  match q with
  | [] -> Format.pp_print_string ppf "true"
  | _ ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf " && ")
        pp_atom ppf q

let to_string q = Format.asprintf "%a" pp q
