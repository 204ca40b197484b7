module F = Probdb_boolean.Formula
module Circuit = Probdb_kc.Circuit
module Guard = Probdb_guard.Guard
module Trace = Probdb_obs.Trace

type var_choice = Most_frequent | Fixed of int list

type config = {
  use_cache : bool;
  use_components : bool;
  independent_or : bool;
  var_choice : var_choice;
  max_decisions : int;
  max_cache_entries : int;
}

let default_config =
  { use_cache = true;
    use_components = true;
    independent_or = false;
    var_choice = Most_frequent;
    max_decisions = 50_000_000;
    max_cache_entries = 500_000 }

let obdd_config order =
  { default_config with use_components = false; var_choice = Fixed order }

let fbdd_config = { default_config with use_components = false }

exception Decision_limit of int

type stats = {
  decisions : int;
  unit_propagations : int;
  cache_hits : int;
  cache_queries : int;
  component_splits : int;
  cache_entries : int;
  cache_evictions : int;
}

type result = { prob : float; circuit : Circuit.t; trace_size : int; stats : stats }

(* Hashed structural cache keys: the cache used to serialise every
   subformula into a string — an allocation per lookup and a
   resident copy per entry. Formulas are kept normalised by their smart
   constructors, so structural equality IS semantic key equality, and
   [F.hash] discriminates without materialising anything. *)
module Fcache = Hashtbl.Make (struct
  type t = F.t

  let equal = F.equal
  let hash = F.hash
end)

module Iset = Set.Make (Int)

let rec var_set = function
  | F.True | F.False -> Iset.empty
  | F.Var v -> Iset.singleton v
  | F.Not f -> var_set f
  | F.And fs | F.Or fs ->
      List.fold_left (fun acc f -> Iset.union acc (var_set f)) Iset.empty fs

(* Partition formulas into groups sharing no variables (union-find with
   path halving and union by size — near-constant amortised [find] even on
   the star-shaped lineages that used to degenerate into O(n) parent
   chains). Groups come back ordered by their smallest member index, each
   group keeping member order, so callers see a deterministic partition. *)
let independent_groups fs =
  let fs = Array.of_list fs in
  let n = Array.length fs in
  let parent = Array.init n Fun.id in
  let size = Array.make n 1 in
  let find i =
    let i = ref i in
    while parent.(!i) <> !i do
      parent.(!i) <- parent.(parent.(!i));
      i := parent.(!i)
    done;
    !i
  in
  let union i j =
    let ri, rj = find i, find j in
    if ri <> rj then begin
      let big, small = if size.(ri) >= size.(rj) then ri, rj else rj, ri in
      parent.(small) <- big;
      size.(big) <- size.(big) + size.(small)
    end
  in
  let home = Hashtbl.create 16 in
  Array.iteri
    (fun i f ->
      Iset.iter
        (fun v ->
          match Hashtbl.find_opt home v with
          | Some j -> union i j
          | None -> Hashtbl.add home v i)
        (var_set f))
    fs;
  let members = Array.make n [] in
  let first = Array.make n max_int in
  for i = n - 1 downto 0 do
    let r = find i in
    members.(r) <- fs.(i) :: members.(r);
    first.(r) <- i
  done;
  (* [members] is indexed by union-find root (arbitrary under union by
     size); order groups by their smallest member index instead. *)
  Array.to_list (Array.init n Fun.id)
  |> List.filter (fun r -> members.(r) <> [])
  |> List.sort (fun a b -> Int.compare first.(a) first.(b))
  |> List.map (fun r -> members.(r))

let most_frequent_var f =
  let freq = Hashtbl.create 32 in
  let bump v = Hashtbl.replace freq v (1 + Option.value ~default:0 (Hashtbl.find_opt freq v)) in
  let rec go = function
    | F.True | F.False -> ()
    | F.Var v -> bump v
    | F.Not f -> go f
    | F.And fs | F.Or fs -> List.iter go fs
  in
  go f;
  let best = Hashtbl.fold
      (fun v c acc ->
        match acc with
        | Some (_, c') when c' > c -> acc
        | Some (v', c') when c' = c && v' <= v -> acc
        | _ -> Some (v, c))
      freq None
  in
  match best with Some (v, _) -> v | None -> invalid_arg "most_frequent_var: no variables"

let choose_var cfg f =
  match cfg.var_choice with
  | Most_frequent -> most_frequent_var f
  | Fixed order -> (
      let vs = var_set f in
      match List.find_opt (fun v -> Iset.mem v vs) order with
      | Some v -> v
      | None -> Iset.min_elt vs)

type entry = { value : float * Circuit.t; mutable stamp : int }

let count ?(config = default_config) ?(guard = Guard.unlimited) ~prob f =
  let builder = Circuit.builder () in
  let cache : entry Fcache.t = Fcache.create 1024 in
  (* The cache is bounded: a long exact solve must not outgrow the heap
     between guard polls. The cap comes from the guard's
     ["dpll.cache_entries"] budget when one is installed, else from the
     config; overflow evicts the least-recently-stamped half in one sweep
     (O(cap log cap) amortised over at least cap/2 inserts). *)
  let cache_cap =
    match Guard.budget_limit guard "dpll.cache_entries" with
    | Some n -> max 2 n
    | None -> max 2 config.max_cache_entries
  in
  let clock = ref 0 in
  let decisions = ref 0
  and unit_propagations = ref 0
  and cache_hits = ref 0
  and cache_queries = ref 0
  and cache_evictions = ref 0
  and component_splits = ref 0 in
  let evict_half () =
    let entries = Fcache.fold (fun k e acc -> (k, e.stamp) :: acc) cache [] in
    let entries = List.sort (fun (_, a) (_, b) -> Int.compare a b) entries in
    let drop = max 1 (List.length entries / 2) in
    List.iteri (fun i (k, _) -> if i < drop then Fcache.remove cache k) entries;
    cache_evictions := !cache_evictions + drop
  in
  let rec go f =
    match f with
    | F.True ->
        incr unit_propagations;
        (1.0, Circuit.tru builder)
    | F.False ->
        incr unit_propagations;
        (0.0, Circuit.fls builder)
    | _ when not config.use_cache -> solve f
    | _ -> (
        incr cache_queries;
        incr clock;
        match Fcache.find_opt cache f with
        | Some e ->
            incr cache_hits;
            e.stamp <- !clock;
            e.value
        | None ->
            let result = solve f in
            if Fcache.length cache >= cache_cap then evict_half ();
            Fcache.replace cache f { value = result; stamp = !clock };
            result)
  and solve f =
    match f with
    | F.And fs when config.use_components -> (
        match independent_groups fs with
        | [ _ ] -> shannon f
        | groups ->
            incr component_splits;
            let parts = List.map (fun g -> go (F.conj g)) groups in
            let p = List.fold_left (fun acc (q, _) -> acc *. q) 1.0 parts in
            (p, Circuit.band builder (List.map snd parts)))
    | F.Or fs when config.independent_or -> (
        match independent_groups fs with
        | [ _ ] -> shannon f
        | groups ->
            incr component_splits;
            let parts = List.map (fun g -> go (F.disj g)) groups in
            let p = 1.0 -. List.fold_left (fun acc (q, _) -> acc *. (1.0 -. q)) 1.0 parts in
            (p, Circuit.ior builder (List.map snd parts)))
    | _ -> shannon f
  and shannon f =
    incr decisions;
    if !decisions > config.max_decisions then raise (Decision_limit config.max_decisions);
    Guard.poll guard ~site:"dpll.shannon";
    (* Sampled: one counter event per 256 decisions keeps the trace small
       while still showing search progress and cache effectiveness. *)
    if !decisions land 255 = 0 && Trace.on () then begin
      Trace.counter ~cat:"dpll" "dpll.decisions" (float_of_int !decisions);
      Trace.counter ~cat:"dpll" "dpll.cache_hits" (float_of_int !cache_hits)
    end;
    let v = choose_var config f in
    let p_lo, c_lo = go (F.condition v false f) in
    let p_hi, c_hi = go (F.condition v true f) in
    let pv = prob v in
    (((1.0 -. pv) *. p_lo) +. (pv *. p_hi), Circuit.decision builder v ~lo:c_lo ~hi:c_hi)
  in
  let p, circuit = go f in
  { prob = p;
    circuit;
    trace_size = Circuit.size circuit;
    stats =
      { decisions = !decisions;
        unit_propagations = !unit_propagations;
        cache_hits = !cache_hits;
        cache_queries = !cache_queries;
        component_splits = !component_splits;
        cache_entries = Fcache.length cache;
        cache_evictions = !cache_evictions } }

let probability ?config ?guard ~prob f = (count ?config ?guard ~prob f).prob
