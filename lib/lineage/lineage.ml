module Core = Probdb_core
module Fo = Probdb_logic.Fo
module Cq = Probdb_logic.Cq
module Semantics = Probdb_logic.Semantics
module F = Probdb_boolean.Formula
module Pool = Probdb_boolean.Var_pool

(* Facts are indexed per relation by tuple. The hash folds the values
   directly, without the intermediate list [Tuple.hash] builds. *)
module Tuple_tbl = Hashtbl.Make (struct
  type t = Core.Tuple.t

  let equal = Core.Tuple.equal

  let hash t =
    List.fold_left
      (fun h v ->
        let hv =
          match v with
          | Core.Value.Int x -> x
          | Core.Value.Str s -> Hashtbl.hash s
          | Core.Value.Bool b -> Bool.to_int b
        in
        (h * 31) + hv)
      17 t
    land max_int
end)

(* Variable [id] is the [id]-th fact of [Tid.support]: its fact and its
   marginal sit at index [id] of two arrays. The string-labelled pool is
   only built for the printers that ask for it. *)
type ctx = {
  db : Core.Tid.t;
  index : (string, int Tuple_tbl.t) Hashtbl.t;
  facts : (string * Core.Tuple.t) array;
  probs : float array;
  pool : Pool.t Lazy.t;
}

let fact_label rel tuple = Printf.sprintf "%s%s" rel (Core.Tuple.to_string tuple)

let create db =
  let support = Core.Tid.support db in
  let n = List.length support in
  let facts = Array.make n ("", []) in
  let probs = Array.make n 0.0 in
  let index = Hashtbl.create 8 in
  List.iteri
    (fun id (rel, tuple, p) ->
      facts.(id) <- (rel, tuple);
      probs.(id) <- p;
      let tbl =
        match Hashtbl.find_opt index rel with
        | Some tbl -> tbl
        | None ->
            let tbl = Tuple_tbl.create 64 in
            Hashtbl.replace index rel tbl;
            tbl
      in
      Tuple_tbl.replace tbl tuple id)
    support;
  let pool =
    lazy
      (let pool = Pool.create () in
       (* [fresh] keeps pool ids equal to fact ids even if two facts
          render to the same label *)
       Array.iteri
         (fun id (rel, tuple) -> ignore (Pool.fresh pool ~prob:probs.(id) (fact_label rel tuple)))
         facts;
       pool)
  in
  { db; index; facts; probs; pool }

let db ctx = ctx.db
let pool ctx = Lazy.force ctx.pool

let var_of_fact ctx rel tuple =
  match Hashtbl.find_opt ctx.index rel with
  | Some tbl -> Tuple_tbl.find_opt tbl tuple
  | None -> None

let fact_of_var ctx id =
  if id < 0 || id >= Array.length ctx.facts then raise Not_found else ctx.facts.(id)

let prob ctx id =
  if id < 0 || id >= Array.length ctx.probs then raise Not_found else ctx.probs.(id)

let atom_formula ctx rel tuple =
  match var_of_fact ctx rel tuple with Some id -> F.var id | None -> F.fls

let of_query ctx q =
  if not (Fo.is_sentence q) then invalid_arg "Lineage.of_query: open formula";
  let domain = Core.Tid.domain ctx.db in
  let rec go env = function
    | Fo.True -> F.tru
    | Fo.False -> F.fls
    | Fo.Atom a ->
        atom_formula ctx a.Fo.rel (List.map (Semantics.eval_term env) a.Fo.args)
    | Fo.Not f -> F.neg (go env f)
    | Fo.And (f, g) -> F.conj2 (go env f) (go env g)
    | Fo.Or (f, g) -> F.disj2 (go env f) (go env g)
    | Fo.Implies (f, g) -> F.implies (go env f) (go env g)
    | Fo.Exists (x, f) -> F.disj (List.map (fun a -> go ((x, a) :: env) f) domain)
    | Fo.Forall (x, f) -> F.conj (List.map (fun a -> go ((x, a) :: env) f) domain)
  in
  go [] q

(* Enumerate assignments of the CQ's variables over the domain, pruning a
   branch as soon as a fully-instantiated positive atom is unlisted. *)
let of_cq ctx cq =
  let domain = Core.Tid.domain ctx.db in
  let vars = Cq.vars cq in
  let eval_arg env = function
    | Fo.Const v -> v
    | Fo.Var x -> List.assoc x env
  in
  let clause env =
    let literal (a : Cq.atom) =
      let tuple = List.map (eval_arg env) a.Cq.args in
      match var_of_fact ctx a.Cq.rel tuple, a.Cq.comp with
      | Some id, false -> Some (F.var id)
      | Some id, true -> Some (F.neg (F.var id))
      | None, false -> Some F.fls
      | None, true -> None (* unlisted tuple is surely absent: literal true *)
    in
    F.conj (List.filter_map literal cq)
  in
  let rec assign env = function
    | [] -> [ clause env ]
    | x :: rest -> List.concat_map (fun a -> assign ((x, a) :: env) rest) domain
  in
  F.disj (assign [] vars)

let of_ucq ctx ucq = F.disj (List.map (of_cq ctx) ucq)

let dnf_of_ucq ctx ucq =
  let domain = Core.Tid.domain ctx.db in
  let eval_arg env = function
    | Fo.Const v -> v
    | Fo.Var x -> List.assoc x env
  in
  let cq_clauses cq =
    let vars = Cq.vars cq in
    let clause env =
      let rec literals acc = function
        | [] -> Some (List.sort_uniq Int.compare acc)
        | (a : Cq.atom) :: rest ->
            if a.Cq.comp then
              invalid_arg "Lineage.dnf_of_ucq: complemented atom in UCQ";
            let tuple = List.map (eval_arg env) a.Cq.args in
            (match var_of_fact ctx a.Cq.rel tuple with
            | Some id -> literals (id :: acc) rest
            | None -> None)
      in
      literals [] cq
    in
    let rec assign env = function
      | [] -> Option.to_list (clause env)
      | x :: rest -> List.concat_map (fun a -> assign ((x, a) :: env) rest) domain
    in
    assign [] vars
  in
  F.absorb (List.concat_map cq_clauses ucq)

let multiplicities clauses =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun clause ->
      List.iter
        (fun v ->
          Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
        clause)
    clauses;
  Hashtbl.fold (fun v k acc -> (v, k) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
