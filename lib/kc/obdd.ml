module F = Probdb_boolean.Formula
module Guard = Probdb_guard.Guard

exception Node_limit of int

(* A node is an int: 0 and 1 are the terminals, internal nodes are numbered
   from 2 in allocation order, so children always have smaller ids than
   their parents. Each node's variable, children and level live in
   parallel growable int arrays, so the kernel allocates no per-node
   blocks, and every table below is keyed by plain ints.

   A node's level is resolved from its variable the first time [apply]
   asks for it (-1 until then), exactly when the variable order is
   consulted: variables absent from the initial order are appended in the
   same sequence whatever the node numbering. *)

(* Open-addressed (a, b) -> r table with linear probing; a = -1 marks an
   empty slot, and the load stays at most one half. *)
type memo = { mutable keys : int array; mutable vals : int array; mutable count : int }

type manager = {
  mutable var_ : int array;
  mutable lo : int array;
  mutable hi : int array;
  mutable level : int array;
  mutable nodes : int; (* allocated so far, terminals included *)
  mutable unique : int array; (* open-addressed node ids; -1 = empty *)
  and_memo : memo;
  or_memo : memo;
  mutable neg_memo : int array; (* node -> its negation; -1 = unknown *)
  levels : (int, int) Hashtbl.t; (* variable -> position in the order *)
  mutable rev_order : int list;
  mutable handles : t option array;
  max_nodes : int;
  guard : Guard.t;
}

(* The public node: one handle per (manager, node), created on first use
   and memoised, so physical equality of handles is node identity. *)
and t = { m : manager; id : int }

let mix h =
  let h = (h lxor (h lsr 32)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let hash2 a b = mix ((a * 0x1F3D5B79) + b)
let hash3 v l h = mix ((mix ((v * 0x1F3D5B79) + l) * 0x3C6EF372) + h)

let memo_create cap = { keys = Array.make (2 * cap) (-1); vals = Array.make cap 0; count = 0 }

let memo_find t a b =
  let mask = Array.length t.vals - 1 in
  let rec go i =
    let k = t.keys.(2 * i) in
    if k < 0 then -1
    else if k = a && t.keys.((2 * i) + 1) = b then t.vals.(i)
    else go ((i + 1) land mask)
  in
  go (hash2 a b land mask)

let rec memo_add t a b r =
  let cap = Array.length t.vals in
  if 2 * (t.count + 1) > cap then begin
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (4 * cap) (-1);
    t.vals <- Array.make (2 * cap) 0;
    t.count <- 0;
    for i = 0 to cap - 1 do
      if keys.(2 * i) >= 0 then memo_add t keys.(2 * i) keys.((2 * i) + 1) vals.(i)
    done
  end;
  let mask = Array.length t.vals - 1 in
  let rec go i =
    if t.keys.(2 * i) < 0 then begin
      t.keys.(2 * i) <- a;
      t.keys.((2 * i) + 1) <- b;
      t.vals.(i) <- r;
      t.count <- t.count + 1
    end
    else go ((i + 1) land mask)
  in
  go (hash2 a b land mask)

let level_of_var m v =
  match Hashtbl.find_opt m.levels v with
  | Some l -> l
  | None ->
      let l = Hashtbl.length m.levels in
      Hashtbl.replace m.levels v l;
      m.rev_order <- v :: m.rev_order;
      l

let manager ?(max_nodes = max_int) ?(guard = Guard.unlimited) ~order () =
  let cap = 1024 in
  let m =
    { var_ = Array.make cap (-1);
      lo = Array.make cap 0;
      hi = Array.make cap 0;
      level = Array.make cap max_int;
      nodes = 2;
      unique = Array.make (2 * cap) (-1);
      and_memo = memo_create cap;
      or_memo = memo_create cap;
      neg_memo = Array.make cap (-1);
      levels = Hashtbl.create 64;
      rev_order = [];
      handles = Array.make 16 None;
      max_nodes;
      guard }
  in
  List.iter (fun v -> ignore (level_of_var m v)) order;
  m

let order m = List.rev m.rev_order
let node_count m = m.nodes - 2

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let unique_insert m n =
  let mask = Array.length m.unique - 1 in
  let rec go i = if m.unique.(i) < 0 then m.unique.(i) <- n else go ((i + 1) land mask) in
  go (hash3 m.var_.(n) m.lo.(n) m.hi.(n) land mask)

let alloc m v l h =
  Guard.poll m.guard ~site:"obdd.mk";
  if node_count m >= m.max_nodes then raise (Node_limit m.max_nodes);
  let n = m.nodes in
  if n = Array.length m.var_ then begin
    m.var_ <- grow m.var_ (-1);
    m.lo <- grow m.lo 0;
    m.hi <- grow m.hi 0;
    m.level <- grow m.level (-1);
    m.neg_memo <- grow m.neg_memo (-1)
  end;
  m.var_.(n) <- v;
  m.lo.(n) <- l;
  m.hi.(n) <- h;
  m.level.(n) <- -1;
  m.nodes <- n + 1;
  if 2 * m.nodes > Array.length m.unique then begin
    m.unique <- Array.make (2 * Array.length m.unique) (-1);
    for k = 2 to n do
      unique_insert m k
    done
  end
  else unique_insert m n;
  n

let mk m v l h =
  if l = h then l
  else
    let mask = Array.length m.unique - 1 in
    let rec probe i =
      let n = m.unique.(i) in
      if n < 0 then alloc m v l h
      else if m.var_.(n) = v && m.lo.(n) = l && m.hi.(n) = h then n
      else probe ((i + 1) land mask)
    in
    probe (hash3 v l h land mask)

let handle m id =
  if id >= Array.length m.handles then begin
    let handles = Array.make (max (id + 1) (2 * Array.length m.handles)) None in
    Array.blit m.handles 0 handles 0 (Array.length m.handles);
    m.handles <- handles
  end;
  match m.handles.(id) with
  | Some h -> h
  | None ->
      let h = { m; id } in
      m.handles.(id) <- Some h;
      h

(* Terminals sit below every variable. *)
let top_level m n =
  if n < 2 then max_int
  else
    let l = m.level.(n) in
    if l >= 0 then l
    else
      let l = level_of_var m m.var_.(n) in
      m.level.(n) <- l;
      l

let rec neg_node m n =
  if n < 2 then 1 - n
  else
    let r = m.neg_memo.(n) in
    if r >= 0 then r
    else
      let h = neg_node m m.hi.(n) in
      let l = neg_node m m.lo.(n) in
      let r = mk m m.var_.(n) l h in
      m.neg_memo.(n) <- r;
      r

let rec apply m memo ~absorbing ~unit_ a b =
  if a = absorbing || b = absorbing then absorbing
  else if a = unit_ then b
  else if b = unit_ then a
  else if a = b then a
  else
    let ka, kb = if a <= b then (a, b) else (b, a) in
    let r = memo_find memo ka kb in
    if r >= 0 then r
    else
      let lb = top_level m b in
      let la = top_level m a in
      let lv = min la lb in
      let v = if la = lv then m.var_.(a) else m.var_.(b) in
      let a0, a1 = if la = lv then (m.lo.(a), m.hi.(a)) else (a, a) in
      let b0, b1 = if lb = lv then (m.lo.(b), m.hi.(b)) else (b, b) in
      let r1 = apply m memo ~absorbing ~unit_ a1 b1 in
      let r0 = apply m memo ~absorbing ~unit_ a0 b0 in
      let r = mk m v r0 r1 in
      memo_add memo ka kb r;
      r

let and_node m a b = apply m m.and_memo ~absorbing:0 ~unit_:1 a b
let or_node m a b = apply m m.or_memo ~absorbing:1 ~unit_:0 a b

let zero m = handle m 0
let one m = handle m 1
let var m v = handle m (mk m v 0 1)
let neg m a = handle m (neg_node m a.id)
let conj m a b = handle m (and_node m a.id b.id)
let disj m a b = handle m (or_node m a.id b.id)

module Fcache = Hashtbl.Make (struct
  type t = F.t

  let equal = F.equal
  let hash = F.hash
end)

let of_formula m f =
  (* Compile bottom-up; the formula cache avoids recompiling shared
     subformulas. *)
  let cache = Fcache.create 256 in
  let rec go f =
    match Fcache.find_opt cache f with
    | Some n -> n
    | None ->
        let n =
          match f with
          | F.True -> 1
          | F.False -> 0
          | F.Var v -> mk m v 0 1
          | F.Not g -> neg_node m (go g)
          | F.And gs -> List.fold_left (fun acc g -> and_node m acc (go g)) 1 gs
          | F.Or gs -> List.fold_left (fun acc g -> or_node m acc (go g)) 0 gs
        in
        Fcache.replace cache f n;
        n
  in
  handle m (go f)

let size { m; id } =
  let seen = Bytes.make m.nodes '\000' in
  let count = ref 0 in
  let rec go n =
    if n >= 2 && Bytes.get seen n = '\000' then begin
      Bytes.set seen n '\001';
      incr count;
      go m.lo.(n);
      go m.hi.(n)
    end
  in
  go id;
  !count

let eval assignment { m; id } =
  let rec go n = if n < 2 then n = 1 else go (if assignment m.var_.(n) then m.hi.(n) else m.lo.(n)) in
  go id

let wmc _m p { m; id } =
  let memo = Array.make m.nodes 0.0 in
  let done_ = Bytes.make m.nodes '\000' in
  let rec go n =
    if n < 2 then float_of_int n
    else if Bytes.get done_ n = '\001' then memo.(n)
    else
      let var = m.var_.(n) in
      let v = ((1.0 -. p var) *. go m.lo.(n)) +. (p var *. go m.hi.(n)) in
      memo.(n) <- v;
      Bytes.set done_ n '\001';
      v
  in
  go id

let sat_count m ~over_vars root =
  wmc m (fun _ -> 0.5) root *. (2.0 ** float_of_int over_vars)

let to_circuit builder { m; id } =
  let memo = Hashtbl.create 64 in
  let rec go n =
    if n = 0 then Circuit.fls builder
    else if n = 1 then Circuit.tru builder
    else
      match Hashtbl.find_opt memo n with
      | Some c -> c
      | None ->
          let c = Circuit.decision builder m.var_.(n) ~lo:(go m.lo.(n)) ~hi:(go m.hi.(n)) in
          Hashtbl.replace memo n c;
          c
  in
  go id

let default_order f =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let note v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      out := v :: !out
    end
  in
  let rec go = function
    | F.True | F.False -> ()
    | F.Var v -> note v
    | F.Not g -> go g
    | F.And gs | F.Or gs -> List.iter go gs
  in
  go f;
  List.rev !out

let obs_counts root : Probdb_obs.Stats.circuit_counts =
  (* every internal OBDD node has exactly two out-edges *)
  let n = size root in
  { Probdb_obs.Stats.circuit_class = "obdd"; nodes = n; edges = 2 * n }
