module Core = Probdb_core
module Fo = Probdb_logic.Fo
module Cq = Probdb_logic.Cq
module Semantics = Probdb_logic.Semantics
module F = Probdb_boolean.Formula
module Pool = Probdb_boolean.Var_pool
module Guard = Probdb_guard.Guard

(* Variable [id] is the [id]-th fact of [Tid.support]: its fact and its
   marginal sit at index [id] of two arrays, which is also its position in
   the join index. The string-labelled pool is only built for the printers
   that ask for it. *)
type ctx = {
  db : Core.Tid.t;
  index : Cq.facts;
  facts : (string * Core.Tuple.t) array;
  probs : float array;
  pool : Pool.t Lazy.t;
}

let fact_label rel tuple = Printf.sprintf "%s%s" rel (Core.Tuple.to_string tuple)

let create db =
  let support = Array.of_list (Core.Tid.support db) in
  let facts = Array.map (fun (rel, tuple, _) -> (rel, tuple)) support in
  let probs = Array.map (fun (_, _, p) -> p) support in
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
  { db; index = Cq.index facts; facts; probs; pool }

let db ctx = ctx.db
let pool ctx = Lazy.force ctx.pool

let var_of_fact ctx rel tuple = Cq.find ctx.index rel tuple

let fact_of_var ctx id =
  if id < 0 || id >= Array.length ctx.facts then raise Not_found else ctx.facts.(id)

let prob ctx id =
  if id < 0 || id >= Array.length ctx.probs then raise Not_found else ctx.probs.(id)

let atom_formula ctx rel tuple =
  match var_of_fact ctx rel tuple with Some id -> F.var id | None -> F.fls

let of_query ?(guard = Guard.unlimited) ctx q =
  if not (Fo.is_sentence q) then invalid_arg "Lineage.of_query: open formula";
  let domain = Core.Tid.domain ctx.db in
  let ticks = ref 0 in
  let rec go env = function
    | Fo.True -> F.tru
    | Fo.False -> F.fls
    | Fo.Atom a ->
        atom_formula ctx a.Fo.rel (List.map (Semantics.eval_term env) a.Fo.args)
    | Fo.Not f -> F.neg (go env f)
    | Fo.And (f, g) -> F.conj2 (go env f) (go env g)
    | Fo.Or (f, g) -> F.disj2 (go env f) (go env g)
    | Fo.Implies (f, g) -> F.implies (go env f) (go env g)
    | Fo.Exists (x, f) -> F.disj (instances env x f)
    | Fo.Forall (x, f) -> F.conj (instances env x f)
  and instances env x f =
    List.map
      (fun a ->
        Guard.tick guard ~site:"lineage.ground" ticks;
        go ((x, a) :: env) f)
      domain
  in
  go [] q

let dnf_of_ucq ?guard ctx ucq =
  let clauses = ref [] in
  List.iter
    (fun cq ->
      Cq.join ?guard ctx.index cq (fun ids ->
          clauses := List.sort_uniq Int.compare ids :: !clauses))
    ucq;
  F.absorb ?guard !clauses

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
