module Core = Probdb_core

type rel_spec = { name : string; arity : int; density : float }

let spec ?(density = 0.5) name arity = { name; arity; density }

let random_tid ?(seed = 42) ?(prob_range = (0.05, 0.95)) ~domain_size specs =
  let rng = Random.State.make [| seed |] in
  let lo, hi = prob_range in
  let domain = List.init domain_size Core.Value.int in
  let make spec =
    let rows =
      Core.Tuple.all spec.arity domain
      |> List.filter_map (fun t ->
             if Random.State.float rng 1.0 < spec.density then
               Some (t, lo +. Random.State.float rng (hi -. lo))
             else None)
    in
    Core.Relation.make (Core.Schema.of_arity spec.name spec.arity) rows
  in
  Core.Tid.make ~domain (List.map make specs)

let complete_tid ?(prob = 0.5) ~domain_size rels =
  let domain = List.init domain_size Core.Value.int in
  let make (name, arity) =
    let rows = List.map (fun t -> (t, prob)) (Core.Tuple.all arity domain) in
    Core.Relation.make (Core.Schema.of_arity name arity) rows
  in
  Core.Tid.make ~domain (List.map make rels)

let h0_db ?(seed = 42) ~n () =
  random_tid ~seed ~domain_size:n
    [ spec ~density:1.0 "R" 1; spec ~density:1.0 "S" 2; spec ~density:1.0 "T" 1 ]

let zipf_probs ?(s = 1.0) k =
  let raw = List.init k (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let top = List.fold_left Float.max 0.0 raw in
  (* rescale into (0, 1): largest weight maps to 0.9 *)
  List.map (fun w -> 0.9 *. w /. top) raw

let with_zipf_probs ?(seed = 42) ?s db =
  let rng = Random.State.make [| seed |] in
  let reassign rel =
    let n = Core.Relation.cardinal rel in
    let probs = Array.of_list (zipf_probs ?s (max n 1)) in
    (* shuffle which tuple gets which rank *)
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- tmp
    done;
    let i = ref 0 in
    Core.Relation.map_probs
      (fun _ _ ->
        let p = probs.(perm.(!i)) in
        incr i;
        p)
      rel
  in
  Core.Tid.make ~domain:(Core.Tid.domain db) (List.map reassign (Core.Tid.relations db))
