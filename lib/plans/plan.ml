module Core = Probdb_core
module Cq = Probdb_logic.Cq
module Fo = Probdb_logic.Fo
module Guard = Probdb_guard.Guard
module Exec = Probdb_exec.Exec
module Storage = Probdb_storage.Storage
module Sset = Set.Make (String)

type t =
  | Scan of Cq.atom
  | Join of t * t
  | Project of string list * t

let atom_vars (a : Cq.atom) =
  List.filter_map (function Fo.Var x -> Some x | Fo.Const _ -> None) a.Cq.args
  |> List.sort_uniq String.compare

let rec out_vars = function
  | Scan a -> atom_vars a
  | Join (p1, p2) ->
      List.sort_uniq String.compare (out_vars p1 @ out_vars p2)
  | Project (keep, _) -> List.sort_uniq String.compare keep

let rec atoms = function
  | Scan a -> [ a ]
  | Join (p1, p2) -> atoms p1 @ atoms p2
  | Project (_, p) -> atoms p

(* ---------- evaluation ----------

   The hot path is columnar: one [Dict] per evaluation interns every value
   once, and the [Exec] operators run over int-array columns. The
   list-based [Ptable] operators remain as the executable reference the
   columnar path is property-tested against. Each operator's output
   cardinality is charged against the guard's ["plan.rows"] budget,
   bounding intermediate-relation blow-up exactly as before. *)

let eval_exec ?(guard = Guard.unlimited) ?counters db plan =
  let observe rel =
    Guard.charge guard ~site:"plan.eval" "plan.rows" (Exec.nrows rel);
    rel
  in
  match Storage.backing db with
  | Some st ->
      (* Packed TID: scan the container's mapped columns in place. The
         container's dictionary already holds every value with its packed
         id, so it is shared read-only across evaluations (and serving
         workers) — query constants resolve through [find_opt], nothing
         interns. Ids coincide with what loading the CSV would intern, so
         answers are bit-identical to the heap path. A constant selection
         probes the relation's shared row index instead of scanning. *)
      let dict = Storage.dict st in
      let lookup v = Core.Dict.find_opt dict v in
      let rec go = function
        | Scan a ->
            observe
              (match Storage.view st a.Cq.rel with
              | Some v ->
                  Exec.scan_cols ~guard ?counters
                    ~index:(Storage.index st a.Cq.rel) ~lookup
                    ~cols:v.Storage.vcols ~probs:v.Storage.vprobs a
              | None -> Exec.empty_scan ?counters a)
        | Join (p1, p2) -> observe (Exec.join ~guard ?counters (go p1) (go p2))
        | Project (keep, p) -> observe (Exec.project ~guard ?counters keep (go p))
      in
      (go plan, dict)
  | None ->
      (* size hint: distinct values are bounded by the support, and starting
         near the final size avoids rehashing the id table log(n) times *)
      let dict =
        Core.Dict.create ~size_hint:(2 * Core.Tid.support_size db + 64) ()
      in
      let rec go = function
        | Scan a -> observe (Exec.scan ~guard ?counters dict db a)
        | Join (p1, p2) -> observe (Exec.join ~guard ?counters (go p1) (go p2))
        | Project (keep, p) -> observe (Exec.project ~guard ?counters keep (go p))
      in
      (go plan, dict)

let ptable_of_rel dict rel =
  { Ptable.vars = Array.to_list rel.Exec.vars;
    rows =
      List.sort
        (fun (a, _) (b, _) -> Core.Tuple.compare a b)
        (Exec.to_rows dict rel) }

let eval ?guard db plan =
  let rel, dict = eval_exec ?guard db plan in
  ptable_of_rel dict rel

let eval_reference ?(guard = Guard.unlimited) db plan =
  let observe t =
    Guard.charge guard ~site:"plan.eval" "plan.rows" (List.length t.Ptable.rows);
    t
  in
  let rec go = function
    | Scan a -> observe (Ptable.scan db a)
    | Join (p1, p2) -> observe (Ptable.join (go p1) (go p2))
    | Project (keep, p) -> observe (Ptable.project keep (go p))
  in
  go plan

let boolean_prob ?guard db plan =
  Exec.boolean_prob (fst (eval_exec ?guard db plan))

let boolean_prob_reference ?guard db plan =
  Ptable.boolean_prob (eval_reference ?guard db plan)

let eval_counting ?guard db plan =
  let counters = Exec.fresh_counters () in
  let rel, dict = eval_exec ?guard ~counters db plan in
  ( ptable_of_rel dict rel,
    { Probdb_obs.Stats.operators = counters.Exec.operators;
      peak_rows = counters.Exec.peak_rows },
    counters.Exec.rows_processed )

let boolean_prob_counting ?guard db plan =
  let counters = Exec.fresh_counters () in
  let rel, _dict = eval_exec ?guard ~counters db plan in
  ( Exec.boolean_prob rel,
    { Probdb_obs.Stats.operators = counters.Exec.operators;
      peak_rows = counters.Exec.peak_rows },
    counters.Exec.rows_processed )

let is_safe plan =
  let rec go = function
    | Scan _ -> true
    | Join (p1, p2) -> go p1 && go p2
    | Project (keep, p) ->
        let keep = Sset.of_list keep in
        let removed = List.filter (fun x -> not (Sset.mem x keep)) (out_vars p) in
        let sub_atoms = atoms p in
        List.for_all
          (fun y -> List.for_all (fun a -> List.mem y (atom_vars a)) sub_atoms)
          removed
        && go p
  in
  go plan

let check_plain_cq cq =
  if not (Cq.is_self_join_free cq) then invalid_arg "Plan: query has self-joins";
  if List.exists (fun (a : Cq.atom) -> a.Cq.comp) cq then
    invalid_arg "Plan: complemented atoms are not supported"

(* Group atoms by connectivity through variables outside [head]. *)
let group_atoms head atoms_list =
  let atoms_arr = Array.of_list atoms_list in
  let n = Array.length atoms_arr in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri, rj = find i, find j in
    if ri <> rj then parent.(ri) <- rj
  in
  let home = Hashtbl.create 8 in
  Array.iteri
    (fun i a ->
      List.iter
        (fun x ->
          if not (Sset.mem x head) then
            match Hashtbl.find_opt home x with
            | Some j -> union i j
            | None -> Hashtbl.add home x i)
        (atom_vars a))
    atoms_arr;
  let groups = Hashtbl.create 8 in
  Array.iteri
    (fun i a ->
      let r = find i in
      Hashtbl.replace groups r (a :: Option.value ~default:[] (Hashtbl.find_opt groups r)))
    atoms_arr;
  Hashtbl.fold (fun _ g acc -> List.rev g :: acc) groups []

let project_to keep plan =
  let keep = List.sort_uniq String.compare keep in
  if List.equal String.equal keep (out_vars plan) then plan else Project (keep, plan)

let safe_plan cq =
  check_plain_cq cq;
  (* Dalvi–Suciu safe-plan construction: split into independent groups,
     otherwise project out a root variable present in all atoms. *)
  let rec build atom_list head =
    let head_list = Sset.elements head in
    match atom_list with
    | [] -> None
    | [ a ] -> Some (project_to head_list (Scan a))
    | _ -> (
        match group_atoms head atom_list with
        | [] -> None
        | [ _single ] -> (
            let in_all x =
              (not (Sset.mem x head))
              && List.for_all (fun a -> List.mem x (atom_vars a)) atom_list
            in
            let all_vars =
              List.concat_map atom_vars atom_list |> List.sort_uniq String.compare
            in
            match List.find_opt in_all all_vars with
            | None -> None
            | Some x ->
                Option.map
                  (fun sub -> project_to head_list sub)
                  (build atom_list (Sset.add x head)))
        | groups ->
            let subs =
              List.map
                (fun g ->
                  let gvars =
                    Sset.of_list (List.concat_map atom_vars g)
                  in
                  build g (Sset.inter head gvars))
                groups
            in
            if List.exists Option.is_none subs then None
            else
              let plans = List.map Option.get subs in
              let joined =
                match plans with
                | [] -> assert false
                | p :: rest -> List.fold_left (fun acc q -> Join (acc, q)) p rest
              in
              Some (project_to head_list joined))
  in
  match cq with
  | [] -> None
  | _ -> build cq Sset.empty

let rec plan_key = function
  | Scan a -> Cq.to_string [ a ]
  | Join (p1, p2) ->
      let k1 = plan_key p1 and k2 = plan_key p2 in
      if String.compare k1 k2 <= 0 then Printf.sprintf "J(%s,%s)" k1 k2
      else Printf.sprintf "J(%s,%s)" k2 k1
  | Project (keep, p) -> Printf.sprintf "P[%s](%s)" (String.concat "," keep) (plan_key p)

(* Unordered bipartitions of a list into two non-empty parts. *)
let bipartitions = function
  | [] | [ _ ] -> []
  | x :: rest ->
      (* x always goes left to avoid mirror duplicates *)
      let rec go = function
        | [] -> [ ([], []) ]
        | y :: ys ->
            let subs = go ys in
            List.concat_map (fun (l, r) -> [ (y :: l, r); (l, y :: r) ]) subs
      in
      go rest
      |> List.filter_map (fun (l, r) -> if r = [] then None else Some (x :: l, r))

let enumerate ?(max_plans = 5000) cq =
  check_plain_cq cq;
  let count = ref 0 in
  let rec plans atom_list out =
    if !count > max_plans then []
    else
      match atom_list with
      | [] -> []
      | [ a ] ->
          incr count;
          [ project_to out (Scan a) ]
      | _ ->
          List.concat_map
            (fun (left, right) ->
              let vl = List.concat_map atom_vars left |> List.sort_uniq String.compare in
              let vr = List.concat_map atom_vars right |> List.sort_uniq String.compare in
              let need side_vars other_vars =
                List.filter
                  (fun x -> List.mem x other_vars || List.mem x out)
                  side_vars
              in
              let options side_vars other_vars =
                let eager = need side_vars other_vars in
                if List.equal String.equal eager side_vars then [ side_vars ]
                else [ eager; side_vars ]
              in
              List.concat_map
                (fun out_l ->
                  List.concat_map
                    (fun out_r ->
                      List.concat_map
                        (fun pl ->
                          List.filter_map
                            (fun pr ->
                              incr count;
                              if !count > max_plans then None
                              else Some (project_to out (Join (pl, pr))))
                            (plans right out_r))
                        (plans left out_l))
                    (options vr vl))
                (options vl vr))
            (bipartitions atom_list)
  in
  let all = plans cq [] in
  (* dedupe structurally-equivalent plans *)
  let seen = Hashtbl.create 64 in
  List.filter
    (fun p ->
      let k = plan_key p in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    all

let rec pp ppf = function
  | Scan a -> Format.fprintf ppf "%s" (Cq.to_string [ a ])
  | Join (p1, p2) -> Format.fprintf ppf "(%a ⋈ %a)" pp p1 pp p2
  | Project (keep, p) ->
      Format.fprintf ppf "γ[%s](%a)" (String.concat "," keep) pp p

let to_string p = Format.asprintf "%a" pp p
