module Core = Probdb_core

type t = { n : int; rels : (string * int * float) list }

let make ~n rels =
  if n < 1 then invalid_arg "Sym_db.make: domain must be non-empty";
  let names = List.map (fun (name, _, _) -> name) rels in
  if List.length names <> List.length (List.sort_uniq String.compare names) then
    invalid_arg "Sym_db.make: duplicate relation";
  List.iter
    (fun (name, arity, _) ->
      if arity < 1 || arity > 2 then
        invalid_arg (Printf.sprintf "Sym_db.make: %s has arity %d (only 1 and 2 supported)" name arity))
    rels;
  { n; rels }

let domain db = List.init db.n Core.Value.int

let find db name =
  match List.find_opt (fun (r, _, _) -> String.equal r name) db.rels with
  | Some entry -> entry
  | None -> raise Not_found

let prob db name =
  let _, _, p = find db name in
  p

let arity db name =
  let _, k, _ = find db name in
  k

let to_tid db =
  let dom = domain db in
  let rels =
    List.map
      (fun (name, arity, p) ->
        Core.Relation.make (Core.Schema.of_arity name arity)
          (List.map (fun t -> (t, p)) (Core.Tuple.all arity dom)))
      db.rels
  in
  Core.Tid.make ~domain:dom rels

let tuple_count db =
  List.fold_left
    (fun acc (_, arity, _) ->
      acc + int_of_float (Float.pow (float_of_int db.n) (float_of_int arity)))
    0 db.rels
