module Core = Probdb_core
module Value = Probdb_core.Value
module Fo = Probdb_logic.Fo
module Cq = Probdb_logic.Cq
module Ucq = Probdb_logic.Ucq
module Guard = Probdb_guard.Guard
module Par = Probdb_par.Par
module Trace = Probdb_obs.Trace

exception Unsafe of string

let log_src = Logs.Src.create "probdb.lifted" ~doc:"Lifted inference rule applications"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = { use_inclusion_exclusion : bool; use_cancellation : bool }

let default_config = { use_inclusion_exclusion = true; use_cancellation = true }
let basic_rules_only = { default_config with use_inclusion_exclusion = false }
let no_cancellation = { default_config with use_cancellation = false }

type stats = {
  mutable independent_unions : int;
  mutable independent_joins : int;
  mutable separator_steps : int;
  mutable ie_expansions : int;
  mutable ie_terms : int;
  mutable cancelled_terms : int;
  mutable negations : int;
  mutable base_lookups : int;
}

let fresh_stats () =
  { independent_unions = 0;
    independent_joins = 0;
    separator_steps = 0;
    ie_expansions = 0;
    ie_terms = 0;
    cancelled_terms = 0;
    negations = 0;
    base_lookups = 0 }

(* Field-wise sum of [src] into [dst]. Parallel branches tally into fresh
   per-branch records (the shared record is not atomic) and are merged here
   after the fork joins. *)
let merge_stats dst src =
  dst.independent_unions <- dst.independent_unions + src.independent_unions;
  dst.independent_joins <- dst.independent_joins + src.independent_joins;
  dst.separator_steps <- dst.separator_steps + src.separator_steps;
  dst.ie_expansions <- dst.ie_expansions + src.ie_expansions;
  dst.ie_terms <- dst.ie_terms + src.ie_terms;
  dst.cancelled_terms <- dst.cancelled_terms + src.cancelled_terms;
  dst.negations <- dst.negations + src.negations;
  dst.base_lookups <- dst.base_lookups + src.base_lookups

let obs_counts (s : stats) : Probdb_obs.Stats.lifted_rules =
  { Probdb_obs.Stats.independent_unions = s.independent_unions;
    independent_joins = s.independent_joins;
    separator_steps = s.separator_steps;
    ie_expansions = s.ie_expansions;
    ie_terms = s.ie_terms;
    cancelled_terms = s.cancelled_terms;
    negations = s.negations;
    base_lookups = s.base_lookups }

(* A clause is a disjunction of variable-connected CQ components; a query is
   a conjunction of clauses. [] is the empty conjunction (true); [[]]
   contains the empty clause (false). *)
type clause = Cq.t list

type query = clause list

let clause_to_string d =
  match d with
  | [] -> "false"
  | _ -> String.concat " || " (List.map Cq.to_string d)

let query_to_string q =
  match q with
  | [] -> "true"
  | _ -> String.concat " AND " (List.map (fun d -> "(" ^ clause_to_string d ^ ")") q)

(* d1 implies d2, clause-wise (Sagiv–Yannakakis on the disjunctions). *)
let clause_contained d1 d2 =
  List.for_all (fun c -> List.exists (fun c' -> Cq.contained c c') d2) d1

let clause_equiv d1 d2 = clause_contained d1 d2 && clause_contained d2 d1

(* Drop components contained in a different component of the same clause,
   keeping one representative per equivalence class. *)
let clause_minimize d =
  let d = List.map Cq.minimize d |> List.sort_uniq Cq.compare in
  let rec filter kept = function
    | [] -> List.rev kept
    | c :: rest ->
        let absorbs c' = Cq.contained c c' in
        if List.exists absorbs kept || List.exists absorbs rest then filter kept rest
        else filter (c :: kept) rest
  in
  filter [] d

(* Drop clauses implied by a different clause of the conjunction. *)
let conj_minimize q =
  let rec filter kept = function
    | [] -> List.rev kept
    | d :: rest ->
        let implies d' = clause_contained d' d in
        if List.exists implies kept || List.exists implies rest then filter kept rest
        else filter (d :: kept) rest
  in
  (* syntactic dedup first so that equal clauses don't absorb each other *)
  let q = List.sort_uniq (List.compare Cq.compare) q in
  filter [] q

let query_of_ucq ucq : query =
  let ucq = Ucq.minimize ucq in
  if ucq = [] then [ [] ]
  else if List.exists (fun cq -> cq = []) ucq then []
  else
    let comp_lists = List.map Cq.connected_components ucq in
    let clauses =
      List.fold_left
        (fun acc comps ->
          List.concat_map (fun clause -> List.map (fun c -> c :: clause) comps) acc)
        [ [] ] comp_lists
    in
    conj_minimize (List.map clause_minimize clauses)

(* Partition items into groups whose relation names are connected. *)
let group_by_names names items =
  let items = Array.of_list items in
  let n = Array.length items in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri, rj = find i, find j in
    if ri <> rj then parent.(ri) <- rj
  in
  let home = Hashtbl.create 16 in
  Array.iteri
    (fun i item ->
      List.iter
        (fun name ->
          match Hashtbl.find_opt home name with
          | Some j -> union i j
          | None -> Hashtbl.add home name i)
        (names item))
    items;
  let groups = Hashtbl.create 8 in
  Array.iteri
    (fun i item ->
      let r = find i in
      Hashtbl.replace groups r (item :: Option.value ~default:[] (Hashtbl.find_opt groups r)))
    items;
  Hashtbl.fold (fun _ g acc -> List.rev g :: acc) groups []

module Iset = Set.Make (Int)

let positions_of_var (a : Cq.atom) x =
  List.to_seq a.Cq.args
  |> Seq.mapi (fun i t -> (i, t))
  |> Seq.filter_map (fun (i, t) ->
         match t with Fo.Var y when String.equal x y -> Some i | _ -> None)
  |> Iset.of_seq

(* A separator assigns to each component a variable occurring in all its
   atoms such that a single position per relation symbol carries the chosen
   variable in every atom of the whole clause (Sec. 5's side condition:
   this makes the substituted queries over distinct constants touch
   disjoint sets of tuples, hence independent). [posmap] accumulates the
   allowed positions per relation name. *)
let find_separator (d : clause) : (Cq.t * string) list option =
  let candidates c =
    List.filter
      (fun x -> List.length (Cq.atoms_of_var c x) = List.length c)
      (Cq.vars c)
  in
  let restrict posmap c x =
    List.fold_left
      (fun posmap_opt (a : Cq.atom) ->
        Option.bind posmap_opt (fun posmap ->
            let here = positions_of_var a x in
            let allowed =
              match List.assoc_opt a.Cq.rel posmap with
              | None -> here
              | Some s -> Iset.inter s here
            in
            if Iset.is_empty allowed then None
            else Some ((a.Cq.rel, allowed) :: List.remove_assoc a.Cq.rel posmap)))
      (Some posmap) c
  in
  let rec assign posmap acc = function
    | [] -> Some (List.rev acc)
    | c :: rest ->
        List.find_map
          (fun x ->
            match restrict posmap c x with
            | Some posmap' -> assign posmap' ((c, x) :: acc) rest
            | None -> None)
          (candidates c)
  in
  assign [] [] d

let ground_tuple (a : Cq.atom) =
  let value = function Fo.Const v -> Some v | Fo.Var _ -> None in
  let vals = List.filter_map value a.Cq.args in
  if List.length vals = List.length a.Cq.args then Some vals else None

(* Non-empty subsets of a list, with the subset size. *)
let nonempty_subsets xs =
  let rec go = function
    | [] -> [ ([], 0) ]
    | x :: rest ->
        let subs = go rest in
        subs @ List.map (fun (s, k) -> (x :: s, k + 1)) subs
  in
  List.filter (fun (_, k) -> k > 0) (go xs)


(* ---------- symbols ---------- *)

(* A constant of a plan: one of the query's own, a parameter bound per
   request, or the slot a separator fills with each domain constant in
   turn (named after the separator variable, for the derivation log). *)
type sym = Fixed of Value.t | Param of int | Slot of int * string

(* The rules run on queries whose constants are all symbols, each encoded
   as the string constant [\x00s<rank>]. A scope maps ranks back to
   symbols; ranks follow the symbols' values wherever the rules compare
   two of them, so the derivation sorts and absorbs exactly as it would on
   the concrete constants (see the interface). The parser never produces a
   NUL byte, so an encoding cannot clash with a user constant. *)
let encode r = Value.Str (Printf.sprintf "\x00s%04d" r)

let rank_of = function
  | Value.Str s when String.length s = 6 && s.[0] = '\x00' && s.[1] = 's' ->
      int_of_string (String.sub s 2 4)
  | v -> invalid_arg ("Lift: constant outside the plan's scope: " ^ Value.to_string v)

let map_terms f (c : Cq.t) =
  List.map (fun (a : Cq.atom) -> { a with Cq.args = List.map f a.Cq.args }) c

let map_consts f c = map_terms (function Fo.Const v -> Fo.Const (f v) | t -> t) c

(* Renders a clause or query of [scope] with each symbol shown as [show s];
   atom order is kept, so the text reads as the concrete derivation's. *)
let decode scope show = map_consts (fun v -> show scope.(rank_of v))

let clause_text scope show d = clause_to_string (List.map (decode scope show) d)

let query_text scope show q = query_to_string (List.map (List.map (decode scope show)) q)

(* How the derivation log shows a symbol: parameters as [$i] (as in the
   prepared key), separator slots as [@x]. *)
let display = function
  | Fixed v -> v
  | Param i -> Value.Str ("$" ^ string_of_int i)
  | Slot (_, x) -> Value.Str ("@" ^ x)

(* ---------- plans ---------- *)

type node =
  | Poll of string * node  (** poll the guard at a site, then evaluate *)
  | Const of float
  | Lookup of { rel : int; comp : bool; args : sym array }
      (** a ground tuple's probability ([1-p] when complemented); [rel]
          indexes the plan's relation names *)
  | Join of node list  (** independent join: the product *)
  | Union of node list  (** independent union: [1 - Π(1 - v)] *)
  | Ie of { terms : (float * node) list; count : int; cancelled : int }
      (** inclusion–exclusion: the signed sum of the kept terms *)
  | Sep of { slot : int; cases : cases }
      (** separator: [1 - Π_a (1 - v)], the slot bound to each domain
          constant [a] in domain order *)
  | Fail of ((sym -> Value.t) -> string)
      (** no rule applies: raises {!Unsafe} with the text rendered from
          the symbols' values in scope *)

and cases =
  | Every of node  (** the slot shares no position with another symbol *)
  | By_order of {
      against : sym array;
      table : (int array * node) list Atomic.t;
      build : (sym -> Value.t) -> Value.t -> node;
    }
      (** the subplan depends on how the slot's constant compares with
          [against]: one subplan per observed comparison pattern, built on
          first use *)

type cx = { config : config; rels : string array; depth : int; scope : sym array }

let rel_index cx name =
  let rec find i = if String.equal cx.rels.(i) name then i else find (i + 1) in
  find 0

(* Memoised lookup in an append-only association list shared by domains;
   two domains missing at once both build, the first to publish wins. *)
let memo table key build =
  match List.assoc_opt key (Atomic.get table) with
  | Some v -> v
  | None ->
      let v = build () in
      let rec publish () =
        let old = Atomic.get table in
        match List.assoc_opt key old with
        | Some v' -> v'
        | None -> if Atomic.compare_and_set table old ((key, v) :: old) then v else publish ()
      in
      publish ()

(* (relation, position, term) for every argument of the atoms of [c]. *)
let args_of (c : Cq.t) =
  List.concat_map (fun (a : Cq.atom) -> List.mapi (fun i t -> (a.Cq.rel, i, t)) a.Cq.args) c

let const_ranks c =
  List.filter_map (function _, _, Fo.Const v -> Some (rank_of v) | _ -> None) (args_of c)

(* The compiler: the rules, run once, on the symbolic query. Each function
   mirrors one step of the derivation and returns the plan of the subquery,
   with the guard polls where the derivation polls and rule applications
   logged once per node. *)
let rec compile_query cx q =
  Poll
    ( "lifted.query",
      let q = conj_minimize (List.map clause_minimize q) in
      match q with
      | [] -> Const 1.0
      | [ d ] -> compile_clause cx d
      | clauses -> (
          match group_by_names (fun d -> List.concat_map Cq.rel_names d) clauses with
          | [] -> Const 1.0
          | [ _single ] -> compile_ie cx clauses
          | groups ->
              Log.debug (fun m ->
                  m "independent join: %d groups of %s" (List.length groups)
                    (query_text cx.scope display clauses));
              Join (List.map (compile_query cx) groups)) )

and compile_ie cx clauses =
  if not cx.config.use_inclusion_exclusion then begin
    let scope = cx.scope in
    Fail
      (fun value ->
        "inclusion-exclusion needed (disabled) on: " ^ query_text scope value clauses)
  end
  else begin
    let terms =
      List.map
        (fun (subset, k) ->
          let union_clause = clause_minimize (List.concat subset) in
          let sign = if k mod 2 = 1 then 1 else -1 in
          (union_clause, sign))
        (nonempty_subsets clauses)
    in
    let terms, cancelled =
      if not cx.config.use_cancellation then (terms, 0)
      else begin
        let grouped =
          List.fold_left
            (fun acc (d, coeff) ->
              let rec add = function
                | [] -> [ (d, coeff) ]
                | (d', coeff') :: rest when clause_equiv d d' -> (d', coeff' + coeff) :: rest
                | pair :: rest -> pair :: add rest
              in
              add acc)
            [] terms
        in
        let kept = List.filter (fun (_, coeff) -> coeff <> 0) grouped in
        (kept, List.length terms - List.length kept)
      end
    in
    Log.debug (fun m ->
        m "inclusion-exclusion over %d clauses: %d terms after cancellation"
          (List.length clauses) (List.length terms));
    Ie
      { terms = List.map (fun (d, coeff) -> (float_of_int coeff, compile_clause cx d)) terms;
        count = List.length terms;
        cancelled }
  end

and compile_clause cx d =
  Poll
    ( "lifted.clause",
      let d = clause_minimize d in
      match d with
      | [] -> Const 0.0
      | _ when List.exists (fun c -> c = []) d -> Const 1.0
      | [ [ a ] ] when Option.is_some (ground_tuple a) ->
          let sym = function Fo.Const v -> cx.scope.(rank_of v) | Fo.Var _ -> assert false in
          Lookup
            { rel = rel_index cx a.Cq.rel;
              comp = a.Cq.comp;
              args = Array.of_list (List.map sym a.Cq.args) }
      | _ -> (
          match group_by_names Cq.rel_names d with
          | [] -> Const 0.0
          | [ _single ] -> (
              match find_separator d with
              | Some pairs ->
                  Log.debug (fun m ->
                      m "separator {%s} on %s"
                        (String.concat ", " (List.map snd pairs))
                        (clause_text cx.scope display d));
                  compile_separator cx d pairs
              | None ->
                  let scope = cx.scope in
                  Fail
                    (fun value ->
                      "no lifted rule applies to clause: " ^ clause_text scope value d))
          | groups ->
              Log.debug (fun m ->
                  m "independent union: %d groups of %s" (List.length groups)
                    (clause_text cx.scope display d));
              Union (List.map (compile_clause cx) groups)) )

(* The rules only ever compare two constants at the same position of two
   atoms over the same relation (sorting, deduplication, homomorphisms).
   So the slot's constant matters only against the symbols that share a
   position with a separator variable: with none, one subplan serves every
   constant, the slot ranked above the scope (its order is never asked).
   Otherwise the subplan is shattered on how the constant compares with
   those symbols. *)
and compile_separator cx d pairs =
  let slot = cx.depth and name = snd (List.hd pairs) in
  let at_var =
    List.concat_map
      (fun (c, x) ->
        List.filter_map (fun (r, i, t) -> if t = Fo.Var x then Some (r, i) else None) (args_of c))
      pairs
  in
  let against =
    List.concat_map args_of d
    |> List.filter_map (function
         | r, i, Fo.Const v when List.mem (r, i) at_var -> Some (rank_of v)
         | _ -> None)
    |> List.sort_uniq Int.compare
  in
  let cases =
    if against = [] then begin
      let r = Array.length cx.scope in
      let scope = Array.append cx.scope [| Slot (slot, name) |] in
      let ucq = List.map (fun (c, x) -> Cq.subst_const x (encode r) c) pairs in
      Every (compile_query { cx with depth = slot + 1; scope } (query_of_ucq ucq))
    end
    else
      By_order
        { against = Array.of_list (List.map (fun r -> cx.scope.(r)) against);
          table = Atomic.make [];
          build = (fun value a -> compile_case cx d pairs against value a) }
  in
  Sep { slot; cases }

(* One shattered case, compiled with the symbols' values at hand: the
   symbols of [d] and the slot are re-ranked by value. The slot merges into
   the symbols of [against] it equals (they are then equal too); the other
   ties keep their order, as they are never compared. *)
and compile_case cx d pairs against value a =
  let slot = cx.depth and name = snd (List.hd pairs) in
  let ranks = List.concat_map const_ranks d |> List.sort_uniq Int.compare in
  let merged =
    List.filter (fun r -> List.mem r against && Value.equal (value cx.scope.(r)) a) ranks
  in
  let rep = match merged with r :: _ -> Some r | [] -> None in
  let fresh = Slot (slot, name) in
  let items =
    List.filter_map
      (fun r ->
        if List.mem r merged && Some r <> rep then None
        else Some (cx.scope.(r), value cx.scope.(r)))
      ranks
    @ if rep = None then [ (fresh, a) ] else []
  in
  let scope =
    Array.of_list
      (List.map fst (List.stable_sort (fun (_, u) (_, v) -> Value.compare u v) items))
  in
  let position s =
    let rec find i = if scope.(i) = s then i else find (i + 1) in
    encode (find 0)
  in
  let renumber v =
    let r = rank_of v in
    position cx.scope.(if List.mem r merged then Option.get rep else r)
  in
  let slot_value = match rep with Some r -> position cx.scope.(r) | None -> position fresh in
  let ucq =
    List.map (fun (c, x) -> Cq.subst_const x slot_value (Cq.make (map_consts renumber c))) pairs
  in
  compile_query { cx with depth = slot + 1; scope } (query_of_ucq ucq)

(* ---------- the compiled query ---------- *)

type source = Sentence of Fo.t | Disjuncts of Ucq.t

type root = { node : node; slots : int }

type t = {
  config : config;
  source : source;
  param : Value.t -> int option;
  mode : (Ucq.mode, string) result;
      (** the reduction's mode, or its [Ucq.Unsupported] message *)
  consts : Value.t array;  (** the source's constants, sorted *)
  syms : sym array;  (** [consts.(i)] as a symbol *)
  rels : string array;
  roots : (int array * root) list Atomic.t;
      (** the plan per order pattern of [syms]' values *)
}

let rec map_fo f = function
  | (Fo.True | Fo.False) as g -> g
  | Fo.Atom a -> Fo.Atom { a with Fo.args = List.map f a.Fo.args }
  | Fo.Not g -> Fo.Not (map_fo f g)
  | Fo.And (g, h) -> Fo.And (map_fo f g, map_fo f h)
  | Fo.Or (g, h) -> Fo.Or (map_fo f g, map_fo f h)
  | Fo.Implies (g, h) -> Fo.Implies (map_fo f g, map_fo f h)
  | Fo.Exists (x, g) -> Fo.Exists (x, map_fo f g)
  | Fo.Forall (x, g) -> Fo.Forall (x, map_fo f g)

let source_map f = function
  | Sentence q -> Sentence (map_fo (function Fo.Const v -> Fo.Const (f v) | t -> t) q)
  | Disjuncts u -> Disjuncts (List.map (fun c -> Cq.make (map_consts f c)) u)

let source_ucq = function Sentence q -> fst (Ucq.of_sentence q) | Disjuncts u -> u

let index_of consts v =
  let rec find i = if Value.equal consts.(i) v then i else find (i + 1) in
  find 0

(* [pattern.(i)] ranks [syms.(i)]'s value among all of them, equal values
   sharing a rank. *)
let compile_root t pattern =
  let n = Array.fold_left max (-1) pattern + 1 in
  let scope = Array.make n (Fixed (Value.Int 0)) in
  for i = Array.length pattern - 1 downto 0 do
    scope.(pattern.(i)) <- t.syms.(i)
  done;
  let ucq = source_ucq (source_map (fun v -> encode pattern.(index_of t.consts v)) t.source) in
  let cx = { config = t.config; rels = t.rels; depth = 0; scope } in
  let node = compile_query cx (query_of_ucq ucq) in
  (* a derivation that fails before any rule applies fails for every
     database: it raises without polling or reading data *)
  let rec bare = function Poll (_, n) -> bare n | n -> n in
  let node = match bare node with Fail _ as f -> f | _ -> node in
  { node; slots = max 1 (List.length (Ucq.vars ucq)) }

let pattern_of values =
  let n = Array.length values in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Value.compare values.(i) values.(j)) order;
  let ranks = Array.make n 0 in
  for k = 1 to n - 1 do
    let p = order.(k - 1) and i = order.(k) in
    ranks.(i) <- (if Value.equal values.(p) values.(i) then ranks.(p) else ranks.(p) + 1)
  done;
  ranks

let compile_source ?(config = default_config) ?(param = fun _ -> None) source =
  let mode =
    match source with
    | Sentence q -> (
        match Ucq.of_sentence q with
        | _, mode -> Ok mode
        | exception Ucq.Unsupported msg -> Error msg)
    | Disjuncts _ -> Ok Ucq.Direct
  in
  let consts, rels =
    match source with
    | Sentence q ->
        (Fo.constants q, List.map (fun (a : Fo.atom) -> a.Fo.rel) (Fo.atoms q))
    | Disjuncts u ->
        ( List.concat_map
            (List.concat_map (fun (a : Cq.atom) ->
                 List.filter_map
                   (function Fo.Const v -> Some v | Fo.Var _ -> None)
                   a.Cq.args))
            u
          |> List.sort_uniq Value.compare,
          Ucq.rel_names u )
  in
  let consts = Array.of_list consts in
  let syms =
    Array.map (fun v -> match param v with Some i -> Param i | None -> Fixed v) consts
  in
  let t =
    { config;
      source;
      param;
      mode;
      consts;
      syms;
      rels = Array.of_list (List.sort_uniq String.compare rels);
      roots = Atomic.make [] }
  in
  (* compile now for constants in the order they are written: all of them
     when the query has no parameters, otherwise one pattern of many *)
  if Result.is_ok mode then begin
    let pattern = Array.init (Array.length consts) Fun.id in
    Atomic.set t.roots [ (pattern, compile_root t pattern) ]
  end;
  t

let compile ?config ?param q = compile_source ?config ?param (Sentence q)
let compile_ucq ?config ?param ucq = compile_source ?config ?param (Disjuncts ucq)

(* ---------- evaluation ---------- *)

type state = {
  guard : Guard.t;
  pool : Par.pool option;
  binding : Value.t array;
  db : Core.Tid.t;
  rel_names : string array;
  relations : Core.Relation.t option option array;
      (** each relation resolved on its first lookup *)
  mutable domain : Value.t list option;
}

let value st env = function
  | Fixed v -> v
  | Param i -> st.binding.(i)
  | Slot (j, _) -> env.(j)

(* Parallel tasks may resolve the same relation or domain twice; both
   store the same value. *)
let relation st i =
  match st.relations.(i) with
  | Some r -> r
  | None ->
      let r = Core.Tid.relation_opt st.db st.rel_names.(i) in
      st.relations.(i) <- Some r;
      r

let domain st =
  match st.domain with
  | Some d -> d
  | None ->
      let d = Core.Tid.domain st.db in
      st.domain <- Some d;
      d

(* Independent branches (relation-disjoint groups, the separator's
   constants) touch disjoint state, so with a pool each runs as its own
   task against a fresh stats record and its own copy of the slot
   environment. [combine] is always folded in branch order — the float
   result is bit-identical to the sequential fold at any pool size. *)
let branches st stats env eval_one ~combine items =
  match st.pool with
  | Some p when List.length items > 1 ->
      let tasks =
        List.map
          (fun g () ->
            let s = fresh_stats () in
            let v = eval_one s (Array.copy env) g in
            (v, s))
          items
      in
      List.fold_left
        (fun acc (v, s) ->
          merge_stats stats s;
          combine acc v)
        1.0 (Par.run p tasks)
  | _ -> List.fold_left (fun acc g -> combine acc (eval_one stats env g)) 1.0 items

let rec eval_node st stats env = function
  | Poll (site, n) ->
      Guard.poll st.guard ~site;
      eval_node st stats env n
  | Const p -> p
  | Lookup { rel; comp; args } ->
      stats.base_lookups <- stats.base_lookups + 1;
      let tuple = Array.fold_right (fun s acc -> value st env s :: acc) args [] in
      let p = match relation st rel with None -> 0.0 | Some r -> Core.Relation.prob r tuple in
      if comp then begin
        stats.negations <- stats.negations + 1;
        1.0 -. p
      end
      else p
  | Join groups ->
      stats.independent_joins <- stats.independent_joins + 1;
      Trace.instant ~cat:"lifted" "lifted.independent_join";
      branches st stats env (eval_node st) ~combine:(fun acc v -> acc *. v) groups
  | Union groups ->
      stats.independent_unions <- stats.independent_unions + 1;
      Trace.instant ~cat:"lifted" "lifted.independent_union";
      1.0
      -. branches st stats env (eval_node st) ~combine:(fun acc v -> acc *. (1.0 -. v)) groups
  | Ie { terms; count; cancelled } ->
      stats.ie_expansions <- stats.ie_expansions + 1;
      Trace.instant ~cat:"lifted" "lifted.inclusion_exclusion";
      stats.cancelled_terms <- stats.cancelled_terms + cancelled;
      stats.ie_terms <- stats.ie_terms + count;
      (* The I/E expansion is the one lifted step that can explode (2^clauses
         terms, each recursing); it gets its own work budget. *)
      Guard.charge st.guard ~site:"lifted.ie" "lifted.ie_terms" count;
      List.fold_left
        (fun acc (coeff, n) -> acc +. (coeff *. eval_node st stats env n))
        0.0 terms
  | Sep { slot; cases } ->
      stats.separator_steps <- stats.separator_steps + 1;
      Trace.instant ~cat:"lifted" "lifted.separator";
      let factor stats env a =
        env.(slot) <- a;
        let n =
          match cases with
          | Every n -> n
          | By_order { against; table; build } ->
              let pattern =
                Array.map (fun s -> Int.compare (Value.compare a (value st env s)) 0) against
              in
              memo table pattern (fun () -> build (value st env) a)
        in
        1.0 -. eval_node st stats env n
      in
      (* The subplans over distinct constants touch disjoint tuples —
         independent, hence also branchable. *)
      1.0 -. branches st stats env factor ~combine:(fun acc v -> acc *. v) (domain st)
  | Fail text -> raise (Unsafe (text (value st env)))

let bind_source t binding =
  source_map (fun v -> match t.param v with Some i -> binding.(i) | None -> v) t.source

let eval ?(stats = fresh_stats ()) ?(guard = Guard.unlimited) ?pool t ~binding db =
  match t.mode with
  | Error msg ->
      (* the bound query's own reduction names its constants *)
      ignore (source_ucq (bind_source t binding));
      raise (Ucq.Unsupported msg)
  | Ok mode ->
      let st =
        { guard;
          pool;
          binding;
          db;
          rel_names = t.rels;
          relations = Array.make (Array.length t.rels) None;
          domain = None }
      in
      let pattern = pattern_of (Array.map (value st [||]) t.syms) in
      let root = memo t.roots pattern (fun () -> compile_root t pattern) in
      let env = Array.make root.slots (Value.Int 0) in
      Ucq.apply_mode mode (eval_node st stats env root.node)

let probability_ucq ?config ?stats ?guard ?pool db ucq =
  eval ?stats ?guard ?pool (compile_ucq ?config ucq) ~binding:[||] db

let probability ?config ?stats ?guard ?pool db q =
  eval ?stats ?guard ?pool (compile ?config q) ~binding:[||] db

type verdict = Safe | Unsafe_by_rules of string | Unsupported of string

(* Rule applicability does not depend on probabilities or on which domain
   constant is substituted, so a one-element domain with an empty database
   decides safety. Parameters stand for themselves. *)
let abstract_db = Core.Tid.make ~domain:[ Value.Str "\xe2\x80\xa2" ] []

let verdict t =
  let nparams =
    Array.fold_left (fun n s -> match s with Param i -> max n (i + 1) | _ -> n) 0 t.syms
  in
  let binding = Array.make nparams (Value.Int 0) in
  Array.iteri (fun i s -> match s with Param j -> binding.(j) <- t.consts.(i) | _ -> ()) t.syms;
  match eval t ~binding abstract_db with
  | (_ : float) -> Safe
  | exception Unsafe msg -> Unsafe_by_rules msg
  | exception Ucq.Unsupported msg -> Unsupported msg

let classify_ucq ?config ucq = verdict (compile_ucq ?config ucq)

let classify ?config q = verdict (compile ?config q)

let pp_verdict ppf = function
  | Safe -> Format.pp_print_string ppf "safe (PTIME by lifted inference)"
  | Unsafe_by_rules msg -> Format.fprintf ppf "unsafe (rules fail: %s)" msg
  | Unsupported msg -> Format.fprintf ppf "unsupported (%s)" msg
