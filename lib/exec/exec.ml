module Core = Probdb_core
module Dict = Core.Dict
module Cq = Probdb_logic.Cq
module Fo = Probdb_logic.Fo
module Guard = Probdb_guard.Guard
module Trace = Probdb_obs.Trace
module Storage = Probdb_storage.Storage

(* Columns come from two providers: ordinary heap arrays (the CSV path,
   and every operator output) and mmapped [Bigarray] segments of a packed
   container (the storage path). Operators read through [iget]/[fget] and
   never care which one they got, so a scan over a packed relation can
   hand its mapped segments straight to a join — zero copies. *)

type int_column = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type float_column =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type icol = Ints of int array | Imapped of int_column
type fcol = Floats of float array | Fmapped of float_column

let iget c i = match c with Ints a -> a.(i) | Imapped m -> m.{i}
let ilen c = match c with Ints a -> Array.length a | Imapped m -> Bigarray.Array1.dim m
let fget c i = match c with Floats a -> a.(i) | Fmapped m -> m.{i}
let flen c = match c with Floats a -> Array.length a | Fmapped m -> Bigarray.Array1.dim m

let int_array = function
  | Ints a -> a
  | Imapped m -> Array.init (Bigarray.Array1.dim m) (fun i -> m.{i})

let float_array = function
  | Floats a -> a
  | Fmapped m -> Array.init (Bigarray.Array1.dim m) (fun i -> m.{i})

type rel = { vars : string array; cols : icol array; probs : fcol }

type counters = {
  mutable operators : int;
  mutable peak_rows : int;
  mutable rows_processed : int;
}

let fresh_counters () = { operators = 0; peak_rows = 0; rows_processed = 0 }

let nrows r = flen r.probs

let note name counters ~inputs ~output =
  if Trace.on () then begin
    Trace.counter ~cat:"exec" ("exec." ^ name ^ ".rows_in") (float_of_int inputs);
    Trace.counter ~cat:"exec" ("exec." ^ name ^ ".rows_out") (float_of_int output)
  end;
  match counters with
  | None -> ()
  | Some c ->
      c.operators <- c.operators + 1;
      c.rows_processed <- c.rows_processed + inputs;
      c.peak_rows <- max c.peak_rows output

(* Each operator body is one span on the trace timeline; paired with the
   rows in/out counters above it shows where plan time and cardinality
   blow-ups happen. *)
let traced name f = Trace.with_span ~cat:"exec" ("exec." ^ name) f

let index_of r x =
  let n = Array.length r.vars in
  let rec go i =
    if i = n then invalid_arg (Printf.sprintf "Exec: unknown column %s" x)
    else if String.equal r.vars.(i) x then i
    else go (i + 1)
  in
  go 0

(* ---------- growable buffers (operator outputs have unknown cardinality) ---------- *)

module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create ?(capacity = 64) () = { a = Array.make (max 1 capacity) 0; n = 0 }

  let push b v =
    if b.n = Array.length b.a then begin
      let bigger = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 bigger 0 b.n;
      b.a <- bigger
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let get b i = b.a.(i)
end

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.0; n = 0 }

  let push b v =
    if b.n = Array.length b.a then begin
      let bigger = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 bigger 0 b.n;
      b.a <- bigger
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* ---------- scan ---------- *)

(* Per-position admission test, resolved once per scan. *)
type arg_check =
  | Check_const of Core.Value.t
  | Bind  (* first occurrence of a variable: always admits *)
  | Check_pos of int  (* repeated variable: must equal the value at this position *)

(* Shared by both scan providers: distinct variables in first-occurrence
   order, each variable's defining position, and the per-position test. *)
let analyze_atom (atom : Cq.atom) =
  if atom.Cq.comp then invalid_arg "Exec.scan: complemented atom";
  let args = Array.of_list atom.Cq.args in
  let var_list =
    Array.fold_left
      (fun acc arg ->
        match arg with
        | Fo.Var x when not (List.exists (String.equal x) acc) -> acc @ [ x ]
        | _ -> acc)
      [] args
  in
  let vars = Array.of_list var_list in
  let first_pos_of x =
    let rec go j =
      match args.(j) with Fo.Var y when String.equal x y -> j | _ -> go (j + 1)
    in
    go 0
  in
  let first_pos = Array.map first_pos_of vars in
  let checks =
    Array.mapi
      (fun j arg ->
        match arg with
        | Fo.Const c -> Check_const c
        | Fo.Var x ->
            let p = first_pos_of x in
            if p = j then Bind else Check_pos p)
      args
  in
  (vars, first_pos, checks)

let scan ?(guard = Guard.unlimited) ?counters dict db (atom : Cq.atom) =
  traced "scan" @@ fun () ->
  let vars, first_pos, checks = analyze_atom atom in
  let k = Array.length vars in
  let col_bufs = Array.init k (fun _ -> Ibuf.create ()) in
  let prob_buf = Fbuf.create () in
  let ticks = ref 0 in
  let inputs = ref 0 in
  (* Most atoms bind distinct variables at every position; that shape needs
     no admission test and no per-row boxing — walk the tuple list once,
     interning straight into the column buffers. *)
  let simple = Array.for_all (function Bind -> true | _ -> false) checks in
  (match Core.Tid.relation_opt db atom.Cq.rel with
  | None -> ()
  | Some r when simple ->
      Core.Relation.fold
        (fun tuple p () ->
          Guard.tick guard ~site:"exec.scan" ticks;
          incr inputs;
          let rec push j = function
            | [] -> ()
            | v :: rest ->
                Ibuf.push col_bufs.(j) (Dict.intern dict v);
                push (j + 1) rest
          in
          push 0 tuple;
          Fbuf.push prob_buf p)
        r ()
  | Some r ->
      Core.Relation.fold
        (fun tuple p () ->
          Guard.tick guard ~site:"exec.scan" ticks;
          incr inputs;
          let row = Array.of_list tuple in
          let admit = ref true in
          Array.iteri
            (fun j check ->
              if !admit then
                match check with
                | Bind -> ()
                | Check_const c -> if not (Core.Value.equal c row.(j)) then admit := false
                | Check_pos p -> if not (Core.Value.equal row.(p) row.(j)) then admit := false)
            checks;
          if !admit then begin
            for j = 0 to k - 1 do
              Ibuf.push col_bufs.(j) (Dict.intern dict row.(first_pos.(j)))
            done;
            Fbuf.push prob_buf p
          end)
        r ());
  let probs = Fbuf.to_array prob_buf in
  let n = Array.length probs in
  let rel =
    { vars;
      cols = Array.map (fun b -> Ints (Array.sub b.Ibuf.a 0 n)) col_bufs;
      probs = Floats probs }
  in
  note "scan" counters ~inputs:!inputs ~output:n;
  rel

let empty_scan ?counters atom =
  let vars, _, _ = analyze_atom atom in
  let rel =
    { vars;
      cols = Array.map (fun _ -> Ints [||]) vars;
      probs = Floats [||] }
  in
  note "scan" counters ~inputs:0 ~output:0;
  rel

let scan_cols ?(guard = Guard.unlimited) ?counters ?index ~lookup
    ~(cols : int_column array) ~(probs : float_column) (atom : Cq.atom) =
  traced "scan" @@ fun () ->
  let vars, first_pos, checks = analyze_atom atom in
  if Array.length checks <> Array.length cols then
    invalid_arg
      (Printf.sprintf "Exec.scan_cols: atom %s has arity %d, relation has %d"
         atom.Cq.rel (Array.length checks) (Array.length cols));
  let n = Bigarray.Array1.dim probs in
  let k = Array.length vars in
  let simple = Array.for_all (function Bind -> true | _ -> false) checks in
  if simple then begin
    (* every position binds a distinct variable: the mapped segments ARE
       the output columns — zero copies, zero per-row work; pages fault in
       only when a downstream operator touches them *)
    let rel =
      { vars; cols = Array.map (fun c -> Imapped c) cols; probs = Fmapped probs }
    in
    note "scan" counters ~inputs:n ~output:n;
    rel
  end
  else begin
    (* Resolve the admission tests into int arrays once: constants become
       interned ids up front, and a constant the dictionary never saw
       matches no row at all. Row [i] is admitted when
       [cols.(cpos.(c)).{i} = cid.(c)] for every constant [c] and
       [cols.(rpos.(r)).{i} = cols.(rsrc.(r)).{i}] for every repeat [r]. *)
    let positions f =
      Array.to_list (Array.mapi f checks) |> List.filter_map Fun.id |> Array.of_list
    in
    let consts =
      positions (fun j -> function Check_const c -> Some (j, lookup c) | _ -> None)
    in
    let impossible = Array.exists (fun (_, id) -> id = None) consts in
    let cpos = Array.map fst consts in
    let cid = Array.map (fun (_, id) -> Option.value id ~default:(-1)) consts in
    let repeats =
      positions (fun j -> function Check_pos p -> Some (j, p) | _ -> None)
    in
    let rpos = Array.map fst repeats and rsrc = Array.map snd repeats in
    let nc = Array.length cpos and nr = Array.length rpos in
    let rec consts_ok i c =
      c = nc || (cols.(cpos.(c)).{i} = cid.(c) && consts_ok i (c + 1))
    in
    let rec repeats_ok i r =
      r = nr || (cols.(rpos.(r)).{i} = cols.(rsrc.(r)).{i} && repeats_ok i (r + 1))
    in
    let col_bufs = Array.init k (fun _ -> Ibuf.create ()) in
    let prob_buf = Fbuf.create () in
    let ticks = ref 0 in
    let visit i =
      Guard.tick guard ~site:"exec.scan" ticks;
      if consts_ok i 0 && repeats_ok i 0 then begin
        for j = 0 to k - 1 do
          Ibuf.push col_bufs.(j) cols.(first_pos.(j)).{i}
        done;
        Fbuf.push prob_buf probs.{i}
      end
    in
    (* The first constant's row index, when the caller has one, narrows
       the scan to that id's bucket; its rows come in ascending order, so
       the output is exactly the full scan's. *)
    let probe =
      match index with
      | Some index when nc > 0 && not impossible -> index cpos.(0)
      | _ -> None
    in
    let inputs =
      match probe with
      | _ when impossible -> 0
      | Some { Storage.starts; rows } ->
          let lo = Int32.to_int starts.{cid.(0)} in
          let hi = Int32.to_int starts.{cid.(0) + 1} in
          for t = lo to hi - 1 do
            visit (Int32.to_int rows.{t})
          done;
          hi - lo
      | None ->
          for i = 0 to n - 1 do
            visit i
          done;
          n
    in
    let out_probs = Fbuf.to_array prob_buf in
    let m = Array.length out_probs in
    let rel =
      { vars;
        cols = Array.map (fun b -> Ints (Array.sub b.Ibuf.a 0 m)) col_bufs;
        probs = Floats out_probs }
    in
    note "scan" counters ~inputs ~output:m;
    rel
  end

(* ---------- join ---------- *)

let join ?(guard = Guard.unlimited) ?counters r1 r2 =
  traced "join" @@ fun () ->
  let mem1 x = Array.exists (String.equal x) r1.vars in
  let shared = Array.of_list (List.filter mem1 (Array.to_list r2.vars)) in
  let idx1 = Array.map (index_of r1) shared in
  let idx2 = Array.map (index_of r2) shared in
  let extra2 =
    Array.to_list r2.vars
    |> List.mapi (fun j x -> (j, x))
    |> List.filter (fun (_, x) -> not (mem1 x))
  in
  let n1 = nrows r1 and n2 = nrows r2 in
  let ns = Array.length shared in
  let hash_row cols idxs i =
    let h = ref 0 in
    for j = 0 to ns - 1 do
      h := (!h * 486187739) + iget cols.(idxs.(j)) i
    done;
    !h land max_int
  in
  let eq_rows i1 i2 =
    let rec go j =
      j = ns
      || (iget r1.cols.(idx1.(j)) i1 = iget r2.cols.(idx2.(j)) i2 && go (j + 1))
    in
    go 0
  in
  (* Build on the right input. The table is a chained hash over two int
     arrays rather than a [Hashtbl]: a generic table allocates a bucket
     list on every [find_all] probe, which dominates the join at scale.
     Chains prepend on insert, so candidates come out newest-first —
     exactly [find_all]'s order, keeping output row order unchanged. *)
  let cap =
    let rec pow2 c = if c >= 2 * n2 then c else pow2 (2 * c) in
    pow2 16
  in
  let mask = cap - 1 in
  let head = Array.make cap (-1) in
  let next = Array.make (max 1 n2) (-1) in
  let ticks = ref 0 in
  for i2 = 0 to n2 - 1 do
    Guard.tick guard ~site:"exec.join" ticks;
    let slot = hash_row r2.cols idx2 i2 land mask in
    next.(i2) <- head.(slot);
    head.(slot) <- i2
  done;
  let left = Ibuf.create ~capacity:(max n1 n2) ()
  and right = Ibuf.create ~capacity:(max n1 n2) () in
  for i1 = 0 to n1 - 1 do
    Guard.tick guard ~site:"exec.join" ticks;
    let slot = hash_row r1.cols idx1 i1 land mask in
    let rec walk i2 =
      if i2 >= 0 then begin
        if eq_rows i1 i2 then begin
          Ibuf.push left i1;
          Ibuf.push right i2
        end;
        walk next.(i2)
      end
    in
    walk head.(slot)
  done;
  let m = left.Ibuf.n in
  let gather src by = Ints (Array.init m (fun t -> iget src (Ibuf.get by t))) in
  let cols1 = Array.map (fun col -> gather col left) r1.cols in
  let cols2 = List.map (fun (j, _) -> gather r2.cols.(j) right) extra2 in
  let rel =
    { vars = Array.append r1.vars (Array.of_list (List.map snd extra2));
      cols = Array.append cols1 (Array.of_list cols2);
      probs =
        Floats
          (Array.init m (fun t ->
               fget r1.probs (Ibuf.get left t) *. fget r2.probs (Ibuf.get right t))) }
  in
  note "join" counters ~inputs:(n1 + n2) ~output:m;
  rel

(* ---------- grouping (project, disjoint union) ---------- *)

type group = { row : int; mutable p : float }

(* Group rows on the columns [idxs], combining probabilities with
   [combine]; returns groups in first-seen row order. *)
let group_by ~guard ~site ~combine idxs r =
  let k = Array.length idxs in
  let hash_row i =
    let h = ref 0 in
    for j = 0 to k - 1 do
      h := (!h * 486187739) + iget r.cols.(idxs.(j)) i
    done;
    !h land max_int
  in
  let eq_rows a b =
    let rec go j =
      j = k || (iget r.cols.(idxs.(j)) a = iget r.cols.(idxs.(j)) b && go (j + 1))
    in
    go 0
  in
  let groups = ref [] and ngroups = ref 0 in
  let tbl : (int, group) Hashtbl.t = Hashtbl.create (max 16 (2 * nrows r)) in
  let ticks = ref 0 in
  let n = nrows r in
  for i = 0 to n - 1 do
    Guard.tick guard ~site ticks;
    let h = hash_row i in
    let existing =
      List.find_opt (fun g -> eq_rows g.row i) (Hashtbl.find_all tbl h)
    in
    match existing with
    | Some g -> g.p <- combine g.p (fget r.probs i)
    | None ->
        let g = { row = i; p = fget r.probs i } in
        Hashtbl.add tbl h g;
        groups := g :: !groups;
        incr ngroups
  done;
  let arr = Array.make !ngroups { row = 0; p = 0.0 } in
  List.iteri (fun i g -> arr.(!ngroups - 1 - i) <- g) !groups;
  arr

let combine_or p q = 1.0 -. ((1.0 -. p) *. (1.0 -. q))

let project ?(guard = Guard.unlimited) ?counters keep r =
  traced "project" @@ fun () ->
  let keep_arr = Array.of_list keep in
  let idxs = Array.map (index_of r) keep_arr in
  let groups = group_by ~guard ~site:"exec.project" ~combine:combine_or idxs r in
  let m = Array.length groups in
  let rel =
    { vars = keep_arr;
      cols =
        Array.map
          (fun j -> Ints (Array.init m (fun t -> iget r.cols.(j) groups.(t).row)))
          idxs;
      probs = Floats (Array.init m (fun t -> groups.(t).p)) }
  in
  note "project" counters ~inputs:(nrows r) ~output:m;
  rel

let disjoint_union ?(guard = Guard.unlimited) ?counters r1 r2 =
  traced "union" @@ fun () ->
  let k = Array.length r1.vars in
  if
    k <> Array.length r2.vars
    || not (Array.for_all (fun x -> Array.exists (String.equal x) r2.vars) r1.vars)
  then invalid_arg "Exec.disjoint_union: column sets differ";
  (* align r2's columns with r1's order, then group the concatenation on
     all columns with probabilities adding (the branches are disjoint) *)
  let perm = Array.map (index_of r2) r1.vars in
  let n1 = nrows r1 and n2 = nrows r2 in
  let both =
    { vars = r1.vars;
      cols =
        Array.init k (fun j ->
            Ints
              (Array.append (int_array r1.cols.(j)) (int_array r2.cols.(perm.(j)))));
      probs = Floats (Array.append (float_array r1.probs) (float_array r2.probs)) }
  in
  let idxs = Array.init k Fun.id in
  let groups = group_by ~guard ~site:"exec.union" ~combine:( +. ) idxs both in
  let m = Array.length groups in
  let rel =
    { vars = r1.vars;
      cols =
        Array.init k (fun j ->
            Ints (Array.init m (fun t -> iget both.cols.(j) groups.(t).row)));
      probs = Floats (Array.init m (fun t -> groups.(t).p)) }
  in
  note "union" counters ~inputs:(n1 + n2) ~output:m;
  rel

let boolean_prob r =
  if Array.length r.vars <> 0 then invalid_arg "Exec.boolean_prob: relation has columns"
  else
    match nrows r with
    | 0 -> 0.0
    | 1 -> fget r.probs 0
    | _ -> invalid_arg "Exec.boolean_prob: multiple rows in boolean relation"

let to_rows dict r =
  let k = Array.length r.vars in
  List.init (nrows r) (fun i ->
      (List.init k (fun j -> Dict.value dict (iget r.cols.(j) i)), fget r.probs i))
