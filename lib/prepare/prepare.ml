module Value = Probdb_core.Value
module Fo = Probdb_logic.Fo
module Cq = Probdb_logic.Cq
module Ucq = Probdb_logic.Ucq
module Parser = Probdb_logic.Parser
module Plan = Probdb_plans.Plan
module Lift = Probdb_lifted.Lift
module Stats = Probdb_obs.Stats
module Clock = Probdb_obs.Clock
module Trace = Probdb_obs.Trace
module Metrics = Probdb_obs.Metrics

(* Running costs of one key in nanoseconds, [-1] until first recorded. *)
type cost = { chain_ns : int Atomic.t; fallback_ns : int Atomic.t }

type cost_kind = Chain | Fallback

type artifact = {
  key : string;
  khash : int;
  template : Fo.t;
  nparams : int;
  ucq : (Ucq.t * Ucq.mode, string) result;
  plan : Plan.t option;
  plan_skip : string option;
  lifted : Lift.t;
  verdict : Lift.verdict;
  cost : cost;
}

type bound = { artifact : artifact; binding : Value.t array }

(* ---------- parameterisation ---------- *)

(* Parameter markers are string constants starting with a NUL byte — a
   byte the parser can never produce, so a marker is unambiguous inside a
   template (and inside the error messages that render one). *)
let marker i = Value.Str ("\x00p" ^ string_of_int i)

let marker_index = function
  | Value.Str s when String.length s > 2 && s.[0] = '\x00' && s.[1] = 'p' ->
      int_of_string_opt (String.sub s 2 (String.length s - 2))
  | _ -> None

(* Each distinct constant becomes a distinct marker, numbered in first-
   occurrence order. The renaming is injective both ways: equal constants
   share a marker (a repeated constant constrains joins, so the equality
   pattern is part of the structure) and distinct constants never merge —
   which is exactly why containment, minimisation, the hierarchy test and
   safe-plan construction on the template transfer to any binding. *)
let lift_constants q =
  let consts = ref [] (* reversed: head has index !n - 1 *) in
  let n = ref 0 in
  let index v =
    let rec find i = function
      | [] -> None
      | v' :: _ when Value.equal v v' -> Some (!n - 1 - i)
      | _ :: rest -> find (i + 1) rest
    in
    match find 0 !consts with
    | Some i -> i
    | None ->
        consts := v :: !consts;
        incr n;
        !n - 1
  in
  let term = function
    | Fo.Var _ as t -> t
    | Fo.Const v -> Fo.Const (marker (index v))
  in
  let rec go = function
    | (Fo.True | Fo.False) as f -> f
    | Fo.Atom { Fo.rel; args } -> Fo.Atom { Fo.rel; args = List.map term args }
    | Fo.Not f -> Fo.Not (go f)
    | Fo.And (a, b) ->
        let a = go a in
        Fo.And (a, go b)
    | Fo.Or (a, b) ->
        let a = go a in
        Fo.Or (a, go b)
    | Fo.Implies (a, b) ->
        let a = go a in
        Fo.Implies (a, go b)
    | Fo.Exists (x, f) -> Fo.Exists (x, go f)
    | Fo.Forall (x, f) -> Fo.Forall (x, go f)
  in
  let t = go q in
  (t, Array.of_list (List.rev !consts))

let tagged_value = function
  | Value.Int n -> "i:" ^ string_of_int n
  | Value.Str s -> "s:" ^ s
  | Value.Bool b -> "b:" ^ string_of_bool b

(* The canonical key: bound variables renamed to [v0, v1, ...] in binding
   order (so alpha-variants collide), markers rendered as [$i], free
   variables kept by name (two open formulas differing only in free-
   variable names are different queries). *)
let canonical_repr q =
  let buf = Buffer.create 128 in
  let add = Buffer.add_string buf in
  let term env = function
    | Fo.Var x -> (
        match List.assoc_opt x env with
        | Some c -> add c
        | None ->
            add "f:";
            add x)
    | Fo.Const v -> (
        match marker_index v with
        | Some i ->
            add "$";
            add (string_of_int i)
        | None -> add (tagged_value v))
  in
  let rec go env = function
    | Fo.True -> add "T"
    | Fo.False -> add "F"
    | Fo.Atom { Fo.rel; args } ->
        add rel;
        add "(";
        List.iteri
          (fun i t ->
            if i > 0 then add ",";
            term env t)
          args;
        add ")"
    | Fo.Not f ->
        add "!(";
        go env f;
        add ")"
    | Fo.And (a, b) ->
        add "&(";
        go env a;
        add ",";
        go env b;
        add ")"
    | Fo.Or (a, b) ->
        add "|(";
        go env a;
        add ",";
        go env b;
        add ")"
    | Fo.Implies (a, b) ->
        add ">(";
        go env a;
        add ",";
        go env b;
        add ")"
    | Fo.Exists (x, f) ->
        let c = "v" ^ string_of_int (List.length env) in
        add "E";
        add c;
        add ".";
        go ((x, c) :: env) f
    | Fo.Forall (x, f) ->
        let c = "v" ^ string_of_int (List.length env) in
        add "A";
        add c;
        add ".";
        go ((x, c) :: env) f
  in
  go [] q;
  Buffer.contents buf

let analyse q =
  let template, consts = lift_constants q in
  let key = canonical_repr template in
  (key, Hashtbl.hash key, template, consts)

let key_of_query q =
  let key, _, _, consts = analyse q in
  (key, consts)

(* ---------- the structural artifact ---------- *)

(* Everything here is a function of the template alone; the UCQ is kept
   minimised, so the engine grounds its core. The skip messages mirror the
   engine's cold safe-plan attempt word for word, so a chain produced
   through a cached artifact reads the same as a cold one. *)
let build ~key ~khash ~nparams template =
  let ucq =
    match Ucq.of_sentence template with
    | u, mode -> Ok (Ucq.minimize u, mode)
    | exception Ucq.Unsupported msg -> Error msg
  in
  let plan, plan_skip =
    match ucq with
    | Error msg -> (None, Some ("fragment: " ^ msg))
    | Ok (_, Ucq.Complemented) ->
        (None, Some "universal sentence (plans handle positive CQs only)")
    | Ok (u, Ucq.Direct) -> (
        match u with
        | [ cq ]
          when Cq.is_self_join_free cq
               && not (List.exists (fun (a : Cq.atom) -> a.Cq.comp) cq) -> (
            match Plan.safe_plan cq with
            | Some p -> (Some p, None)
            | None -> (None, Some "no safe plan (non-hierarchical)"))
        | [ _ ] -> (None, Some "CQ has self-joins or negated atoms")
        | _ -> (None, Some "not a single CQ"))
  in
  let lifted = Lift.compile ~param:marker_index template in
  let verdict = Lift.verdict lifted in
  let cost = { chain_ns = Atomic.make (-1); fallback_ns = Atomic.make (-1) } in
  { key; khash; template; nparams; ucq; plan; plan_skip; lifted; verdict; cost }

let prepare q =
  let key, khash, template, consts = analyse q in
  { artifact = build ~key ~khash ~nparams:(Array.length consts) template;
    binding = consts }

(* ---------- the backpressure cost record ---------- *)

(* An exponentially weighted mean, 1/4 on the newest duration. Two domains
   recording at once may lose one duration, which only delays the mean. *)
let record_cost a kind dt_s =
  let cell = match kind with Chain -> a.cost.chain_ns | Fallback -> a.cost.fallback_ns in
  let ns = max 0 (int_of_float (dt_s *. 1e9)) in
  let old = Atomic.get cell in
  Atomic.set cell (if old < 0 then ns else old + ((ns - old) / 4))

let degrade_under_load a =
  let chain = Atomic.get a.cost.chain_ns and fallback = Atomic.get a.cost.fallback_ns in
  chain < 0 || fallback < 0 || chain >= fallback

(* ---------- binding (execute-time substitution) ---------- *)

let bind_value binding v =
  match marker_index v with
  | Some i when i < Array.length binding -> binding.(i)
  | _ -> v

let bind_term binding = function
  | Fo.Const v -> Fo.Const (bind_value binding v)
  | t -> t

let bind_catom binding (a : Cq.atom) =
  { a with Cq.args = List.map (bind_term binding) a.Cq.args }

let rec bind_plan_t binding = function
  | Plan.Scan a -> Plan.Scan (bind_catom binding a)
  | Plan.Join (l, r) -> Plan.Join (bind_plan_t binding l, bind_plan_t binding r)
  | Plan.Project (vs, p) -> Plan.Project (vs, bind_plan_t binding p)

let bind_plan b = Option.map (bind_plan_t b.binding) b.artifact.plan

(* Skip messages built on the template may render a marker; substitute the
   bound constant back so the message matches what the cold attempt on the
   concrete query would have said. *)
let bind_msg binding msg =
  if Array.length binding = 0 then msg
  else begin
    let n = String.length msg in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      if
        !i + 2 < n
        && msg.[!i] = '\x00'
        && msg.[!i + 1] = 'p'
        && msg.[!i + 2] >= '0'
        && msg.[!i + 2] <= '9'
      then begin
        let j = ref (!i + 2) in
        while !j < n && msg.[!j] >= '0' && msg.[!j] <= '9' do
          incr j
        done;
        let idx = int_of_string (String.sub msg (!i + 2) (!j - !i - 2)) in
        if idx < Array.length binding then
          Buffer.add_string buf (Value.to_string binding.(idx))
        else Buffer.add_string buf (String.sub msg !i (!j - !i));
        i := !j
      end
      else begin
        Buffer.add_char buf msg.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

let bind_ucq b =
  match b.artifact.ucq with
  | Error msg -> Error (bind_msg b.binding msg)
  | Ok (ucq, mode) ->
      Ok
        ( List.map
            (fun cq -> Cq.make (List.map (bind_catom b.binding) cq))
            ucq,
          mode )

let plan_skip b = Option.map (bind_msg b.binding) b.artifact.plan_skip

(* ---------- the shared cache ---------- *)

module Cache = struct
  module SM = Map.Make (String)

  type counters = { hits : int; misses : int; evictions : int; entries : int }

  type entry = { e_artifact : artifact; last_used : int Atomic.t }

  type text_entry = { tq : Fo.t; tbound : bound }

  type t = {
    cache_capacity : int;
    heap_watermark_words : int option;
    by_key : entry SM.t Atomic.t;
    by_text : text_entry SM.t Atomic.t;
    lock : Mutex.t;
    tick : int Atomic.t;
    c_hits : int Atomic.t;
    c_misses : int Atomic.t;
    c_evictions : int Atomic.t;
  }

  let default_capacity = 512

  let m_hits = Metrics.counter "prepare.cache_hits"
  let m_misses = Metrics.counter "prepare.cache_misses"
  let m_evictions = Metrics.counter "prepare.cache_evictions"

  let create ?(capacity = default_capacity) ?heap_watermark_words () =
    { cache_capacity = max 0 capacity;
      heap_watermark_words;
      by_key = Atomic.make SM.empty;
      by_text = Atomic.make SM.empty;
      lock = Mutex.create ();
      tick = Atomic.make 0;
      c_hits = Atomic.make 0;
      c_misses = Atomic.make 0;
      c_evictions = Atomic.make 0 }

  let disabled_by_env () =
    match Sys.getenv_opt "PROBDB_NO_PLAN_CACHE" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true

  let create_default () =
    create ~capacity:(if disabled_by_env () then 0 else default_capacity) ()

  let capacity c = c.cache_capacity

  let counters c =
    { hits = Atomic.get c.c_hits;
      misses = Atomic.get c.c_misses;
      evictions = Atomic.get c.c_evictions;
      entries = SM.cardinal (Atomic.get c.by_key) }

  let artifacts c =
    SM.fold (fun _ e acc -> e.e_artifact :: acc) (Atomic.get c.by_key) []

  let next_tick c = Atomic.fetch_and_add c.tick 1

  let with_lock c f =
    Mutex.lock c.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

  (* Oldest-stamp-first eviction of [n] entries; caller holds the lock. *)
  let evict_n c m n =
    let aged =
      SM.fold (fun k e acc -> (Atomic.get e.last_used, k) :: acc) m []
    in
    let sorted = List.sort compare aged in
    let rec drop m n = function
      | (_, k) :: rest when n > 0 -> drop (SM.remove k m) (n - 1) rest
      | _ -> m
    in
    ignore (Atomic.fetch_and_add c.c_evictions n);
    Metrics.add m_evictions n;
    drop m n sorted

  (* Insert under the lock: capacity overflow evicts the overflow, and —
     like the WMC component cache — a major heap past 80% of the
     configured watermark sweeps half the entries. Text entries whose
     artifact was evicted are pruned so the two indexes stay in sync. *)
  let insert_locked c key a =
    let m =
      SM.add key
        { e_artifact = a; last_used = Atomic.make (next_tick c) }
        (Atomic.get c.by_key)
    in
    let over = max 0 (SM.cardinal m - c.cache_capacity) in
    let sweep =
      match c.heap_watermark_words with
      | Some w when (Gc.quick_stat ()).Gc.heap_words * 10 > w * 8 ->
          max 0 ((SM.cardinal m / 2) - over)
      | _ -> 0
    in
    let n = over + sweep in
    if n = 0 then Atomic.set c.by_key m
    else begin
      let m = evict_n c m n in
      Atomic.set c.by_key m;
      Atomic.set c.by_text
        (SM.filter
           (fun _ te -> SM.mem te.tbound.artifact.key m)
           (Atomic.get c.by_text))
    end

  let touch c key =
    match SM.find_opt key (Atomic.get c.by_key) with
    | Some e -> Atomic.set e.last_used (next_tick c)
    | None -> ()

  let count_hit c =
    Atomic.incr c.c_hits;
    Metrics.incr m_hits

  let count_miss c =
    Atomic.incr c.c_misses;
    Metrics.incr m_misses

  let fill_stats s c ~hit ~key =
    let k = counters c in
    s.Stats.prepare <-
      Some
        { Stats.prep_hit = hit;
          prep_key = key;
          prep_cache_hits = k.hits;
          prep_cache_misses = k.misses;
          prep_cache_evictions = k.evictions;
          prep_cache_entries = k.entries }

  (* Lock-free read path: one atomic load of the key index, a pure map
     search, and an atomic recency stamp on a hit. Only misses take the
     lock, with a double-checked lookup so concurrent misses on one key
     build the artifact once. *)
  let lookup_or_build c q =
    let key, khash, template, consts = analyse q in
    match
      if c.cache_capacity > 0 then SM.find_opt key (Atomic.get c.by_key)
      else None
    with
    | Some e ->
        Atomic.set e.last_used (next_tick c);
        count_hit c;
        ({ artifact = e.e_artifact; binding = consts }, true)
    | None ->
        count_miss c;
        let nparams = Array.length consts in
        let artifact =
          if c.cache_capacity = 0 then build ~key ~khash ~nparams template
          else
            with_lock c (fun () ->
                match SM.find_opt key (Atomic.get c.by_key) with
                | Some e ->
                    Atomic.set e.last_used (next_tick c);
                    e.e_artifact
                | None ->
                    let a = build ~key ~khash ~nparams template in
                    insert_locked c key a;
                    a)
        in
        ({ artifact; binding = consts }, false)

  let of_query ?stats c q =
    Trace.with_span ~cat:"engine" "prepare" (fun () ->
        let t0 = Clock.now () in
        let b, hit = lookup_or_build c q in
        (match stats with
        | Some s ->
            Stats.record_phase s Stats.Prepare (Clock.now () -. t0);
            fill_stats s c ~hit ~key:b.artifact.key
        | None -> ());
        b)

  let insert_text_locked c tkey q b =
    let m = SM.add tkey { tq = q; tbound = b } (Atomic.get c.by_text) in
    let m =
      if SM.cardinal m > c.cache_capacity * 4 then begin
        let live =
          SM.filter
            (fun _ te -> SM.mem te.tbound.artifact.key (Atomic.get c.by_key))
            m
        in
        if SM.cardinal live > c.cache_capacity * 4 then SM.empty else live
      end
      else m
    in
    Atomic.set c.by_text m

  let resolve_text ?stats c ~free text =
    let tkey = String.concat "\x00" free ^ "\x01" ^ text in
    let cached =
      if c.cache_capacity = 0 then None
      else SM.find_opt tkey (Atomic.get c.by_text)
    in
    match cached with
    | Some te ->
        Trace.with_span ~cat:"engine" "prepare" (fun () ->
            let t0 = Clock.now () in
            touch c te.tbound.artifact.key;
            count_hit c;
            match stats with
            | Some s ->
                Stats.record_phase s Stats.Prepare (Clock.now () -. t0);
                fill_stats s c ~hit:true ~key:te.tbound.artifact.key
            | None -> ());
        (te.tq, Some te.tbound)
    | None ->
        let parse () = Parser.parse ~free text in
        let q =
          match stats with
          | Some s -> Stats.time_phase s Stats.Parse parse
          | None -> parse ()
        in
        if free <> [] || not (Fo.is_sentence q) then (q, None)
        else begin
          let b = of_query ?stats c q in
          if c.cache_capacity > 0 then
            with_lock c (fun () -> insert_text_locked c tkey q b);
          (q, Some b)
        end
end
