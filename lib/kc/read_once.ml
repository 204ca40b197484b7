module F = Probdb_boolean.Formula
module Guard = Probdb_guard.Guard
module Iset = Set.Make (Int)

let vars_of clauses = List.fold_left (fun acc c -> List.fold_left (fun a v -> Iset.add v a) acc c) Iset.empty clauses

(* Connected components of the co-occurrence relation: variables are
   connected when they share a clause. Union-find over variables. *)
let co_occurrence_components clauses =
  let parent = Hashtbl.create 16 in
  let rec find v =
    match Hashtbl.find_opt parent v with
    | None | Some None -> v
    | Some (Some p) ->
        let r = find p in
        Hashtbl.replace parent v (Some r);
        r
  in
  let union a b =
    let ra, rb = (find a, find b) in
    if ra <> rb then Hashtbl.replace parent ra (Some rb)
  in
  Iset.iter (fun v -> if not (Hashtbl.mem parent v) then Hashtbl.add parent v None) (vars_of clauses);
  List.iter
    (function
      | [] | [ _ ] -> ()
      | v :: rest -> List.iter (fun w -> union v w) rest)
    clauses;
  let groups = Hashtbl.create 8 in
  Iset.iter
    (fun v ->
      let r = find v in
      Hashtbl.replace groups r (Iset.add v (Option.value ~default:Iset.empty (Hashtbl.find_opt groups r))))
    (vars_of clauses);
  Hashtbl.fold (fun _ s acc -> s :: acc) groups []

(* Co-components: connected components of the *complement* of the
   co-occurrence graph. Computed by refining a partition: start with all
   variables in one block and split, BFS-style, using non-adjacency. For
   the small variable counts of lineages a quadratic approach suffices:
   build the co-occurrence adjacency and run components on the
   complement. *)
let co_components clauses =
  let vars = Iset.elements (vars_of clauses) in
  let adjacent = Hashtbl.create 64 in
  List.iter
    (fun c ->
      List.iter
        (fun v -> List.iter (fun w -> if v <> w then Hashtbl.replace adjacent (v, w) ()) c)
        c)
    clauses;
  let n = List.length vars in
  let arr = Array.of_list vars in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri, rj = (find i, find j) in
    if ri <> rj then parent.(ri) <- rj
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (Hashtbl.mem adjacent (arr.(i), arr.(j))) then union i j
    done
  done;
  let groups = Hashtbl.create 8 in
  Array.iteri
    (fun i v ->
      let r = find i in
      Hashtbl.replace groups r (Iset.add v (Option.value ~default:Iset.empty (Hashtbl.find_opt groups r))))
    arr;
  Hashtbl.fold (fun _ s acc -> s :: acc) groups []

let project block clauses =
  F.absorb
    (List.filter_map
       (fun c ->
         match List.filter (fun v -> Iset.mem v block) c with
         | [] -> None
         | c' -> Some c')
       clauses)

(* Normality: the DNF must equal the product of its co-component
   projections. Both are antichains (a product of antichains over disjoint
   blocks is one), and a clause splits uniquely along the blocks, so they
   are equal iff the sizes agree and every clause's restriction to each
   block is a clause of that block's projection — the product itself,
   which can be far larger than the DNF, is never built. *)
let product_equals clauses blocks projections =
  let n = List.length clauses in
  let size = List.fold_left (fun acc p -> if acc > n then acc else acc * List.length p) 1 projections in
  size = n
  &&
  let members =
    List.map
      (fun p ->
        let t = Hashtbl.create 16 in
        List.iter (fun c -> Hashtbl.replace t c ()) p;
        t)
      projections
  in
  List.for_all
    (fun c ->
      List.for_all2
        (fun block t -> Hashtbl.mem t (List.filter (fun v -> Iset.mem v block) c))
        blocks members)
    clauses

(* Each factorisation step polls [guard] first: one step can cost a
   quadratic co-component pass, and a DNF may recurse through many steps
   before it is accepted or rejected. *)
let rec factor_clauses guard clauses =
  Guard.poll guard ~site:"read_once.factor";
  match F.absorb clauses with
  | [] -> Some F.fls
  | [ [] ] -> Some F.tru
  | [ [ v ] ] -> Some (F.var v)
  | clauses -> (
      match co_occurrence_components clauses with
      | [] -> Some F.fls
      | _ :: _ :: _ as comps ->
          (* OR-decomposition: each clause lives entirely in one component *)
          let parts =
            List.map
              (fun block ->
                factor_clauses guard
                  (List.filter
                     (fun c -> match c with [] -> false | v :: _ -> Iset.mem v block)
                     clauses))
              comps
          in
          if List.exists Option.is_none parts then None
          else Some (F.disj (List.map Option.get parts))
      | [ _single ] -> (
          match co_components clauses with
          | [] | [ _ ] -> None (* connected and co-connected with > 1 variable *)
          | co_comps ->
              let projections = List.map (fun block -> project block clauses) co_comps in
              if not (product_equals clauses co_comps projections) then None
              else
                let parts = List.map (factor_clauses guard) projections in
                if List.exists Option.is_none parts then None
                else Some (F.conj (List.map Option.get parts))))

let factor ?(guard = Guard.unlimited) clauses =
  if List.exists (List.exists (fun v -> v < 0)) clauses then
    invalid_arg "Read_once.factor: negative literals are not supported";
  factor_clauses guard clauses

let is_read_once clauses = Option.is_some (factor clauses)

let rec wmc_formula p = function
  | F.True -> 1.0
  | F.False -> 0.0
  | F.Var v -> p v
  | F.Not f -> 1.0 -. wmc_formula p f
  | F.And fs -> List.fold_left (fun acc f -> acc *. wmc_formula p f) 1.0 fs
  | F.Or fs -> 1.0 -. List.fold_left (fun acc f -> acc *. (1.0 -. wmc_formula p f)) 1.0 fs

let probability ?guard p clauses = Option.map (wmc_formula p) (factor ?guard clauses)
