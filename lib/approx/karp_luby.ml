module Guard = Probdb_guard.Guard
module Par = Probdb_par.Par

type estimate = { mean : float; std_error : float; samples : int; union_weight : float }

let half_width_95 e = 1.96 *. e.std_error

(* Acklam's rational approximation to the standard normal quantile
   (inverse CDF), accurate to ~1.15e-9 over (0,1). *)
let normal_quantile p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Karp_luby.normal_quantile: p must lie in (0,1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  and b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  and c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  and d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let tail q sign =
    let u = sqrt (-2.0 *. log q) in
    sign
    *. (((((c.(0) *. u +. c.(1)) *. u +. c.(2)) *. u +. c.(3)) *. u +. c.(4)) *. u
        +. c.(5))
    /. ((((d.(0) *. u +. d.(1)) *. u +. d.(2)) *. u +. d.(3)) *. u +. 1.0)
  in
  if p < p_low then tail p 1.0
  else if p > 1.0 -. p_low then tail (1.0 -. p) (-1.0)
  else begin
    let q = p -. 0.5 in
    let r = q *. q in
    (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r
     +. a.(5))
    *. q
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r
        +. 1.0)
  end

let required_samples ~eps ~delta ~clauses =
  if not (eps > 0.0) then invalid_arg "Karp_luby.required_samples: eps must be > 0";
  if not (delta > 0.0 && delta < 1.0) then
    invalid_arg "Karp_luby.required_samples: delta must lie in (0,1)";
  if clauses <= 0 then invalid_arg "Karp_luby.required_samples: need clauses > 0";
  let m = float_of_int clauses in
  let n = 4.0 *. m *. log (2.0 /. delta) /. (eps *. eps) in
  int_of_float (Float.ceil n)

(* [p(F)] is a probability, but [Σwᵢ·E[1/N]] can overshoot 1 by sampling
   noise on near-certain lineage. Both estimators and the interval go
   through this one clamp, so a value always lies inside its own interval
   and both lie inside [0,1]. *)
let clamp01 x = Float.min 1.0 (Float.max 0.0 x)

let confidence_interval ~delta e =
  let z = normal_quantile (1.0 -. (delta /. 2.0)) in
  let h = z *. e.std_error in
  let mean = clamp01 e.mean in
  (clamp01 (mean -. h), clamp01 (mean +. h))

(* The estimate from the running sums of [1/N] over [samples] draws. *)
let of_sums ~union_weight ~samples sum sum_sq =
  let m = float_of_int samples in
  let mean_z = sum /. m in
  let var_z = Float.max 0.0 ((sum_sq /. m) -. (mean_z *. mean_z)) in
  { mean = clamp01 (union_weight *. mean_z);
    std_error = union_weight *. sqrt (var_z /. m);
    samples;
    union_weight }

let clause_weight prob clause = List.fold_left (fun acc v -> acc *. prob v) 1.0 clause

let all_vars clauses = List.concat clauses |> List.sort_uniq Int.compare

let satisfies assignment clause = List.for_all assignment clause

let estimate ?(seed = 42) ?(guard = Guard.unlimited) ~samples ~prob clauses =
  if samples <= 0 then invalid_arg "Karp_luby.estimate: need at least one sample";
  match clauses with
  | [] -> { mean = 0.0; std_error = 0.0; samples; union_weight = 0.0 }
  | _ ->
      let clauses = Array.of_list clauses in
      let weights = Array.map (clause_weight prob) clauses in
      let union_weight = Array.fold_left ( +. ) 0.0 weights in
      if union_weight = 0.0 then
        { mean = 0.0; std_error = 0.0; samples; union_weight }
      else begin
        let vars = all_vars (Array.to_list clauses) in
        List.iter
          (fun v ->
            let p = prob v in
            if p < 0.0 || p > 1.0 then
              invalid_arg "Karp_luby.estimate: non-standard probability")
          vars;
        let cumulative = Array.make (Array.length weights) 0.0 in
        let _ =
          Array.fold_left
            (fun (i, acc) w ->
              let acc = acc +. w in
              cumulative.(i) <- acc;
              (i + 1, acc))
            (0, 0.0) weights
        in
        let rng = Random.State.make [| seed |] in
        let pick_clause () =
          let r = Random.State.float rng union_weight in
          let rec find i = if r <= cumulative.(i) || i = Array.length cumulative - 1 then i else find (i + 1) in
          find 0
        in
        (* Dense arrays indexed by variable id: the sampler's inner loops
           run [samples * total-literals] times, so per-lookup hashing is
           the dominant cost at FPRAS sample counts. *)
        let vmax = List.fold_left max 0 vars in
        let clause_arr = Array.map Array.of_list clauses in
        let var_arr = Array.of_list vars in
        let probs = Array.map prob var_arr in
        let assignment = Array.make (vmax + 1) false in
        let stamped = Array.make (vmax + 1) (-1) in
        let sum = ref 0.0 and sum_sq = ref 0.0 in
        for s = 1 to samples do
          Guard.poll guard ~site:"kl.sample";
          let i = pick_clause () in
          Array.iter
            (fun v ->
              assignment.(v) <- true;
              stamped.(v) <- s)
            clause_arr.(i);
          Array.iteri
            (fun j v ->
              if stamped.(v) <> s then
                assignment.(v) <- Random.State.float rng 1.0 < probs.(j))
            var_arr;
          let n = ref 0 in
          Array.iter
            (fun c ->
              let sat = ref true in
              let k = Array.length c in
              let j = ref 0 in
              while !sat && !j < k do
                if not assignment.(c.(!j)) then sat := false;
                incr j
              done;
              if !sat then incr n)
            clause_arr;
          let z = 1.0 /. float_of_int !n in
          sum := !sum +. z;
          sum_sq := !sum_sq +. (z *. z)
        done;
        of_sums ~union_weight ~samples !sum !sum_sq
      end

(* ---------- parallel estimator ---------- *)

let batch_size = 1024

let estimate_par ?(seed = 42) ?(guard = Guard.unlimited) ?pool ~samples ~prob clauses =
  if samples <= 0 then invalid_arg "Karp_luby.estimate_par: need at least one sample";
  match clauses with
  | [] -> { mean = 0.0; std_error = 0.0; samples; union_weight = 0.0 }
  | _ ->
      let clauses = Array.of_list clauses in
      let weights = Array.map (clause_weight prob) clauses in
      let union_weight = Array.fold_left ( +. ) 0.0 weights in
      if union_weight = 0.0 then
        { mean = 0.0; std_error = 0.0; samples; union_weight }
      else begin
        let vars = all_vars (Array.to_list clauses) in
        List.iter
          (fun v ->
            let p = prob v in
            if p < 0.0 || p > 1.0 then
              invalid_arg "Karp_luby.estimate_par: non-standard probability")
          vars;
        let cumulative = Array.make (Array.length weights) 0.0 in
        let _ =
          Array.fold_left
            (fun (i, acc) w ->
              let acc = acc +. w in
              cumulative.(i) <- acc;
              (i + 1, acc))
            (0, 0.0) weights
        in
        let vmax = List.fold_left max 0 vars in
        let clause_arr = Array.map Array.of_list clauses in
        let var_arr = Array.of_list vars in
        let probs = Array.map prob var_arr in
        (* Samples are drawn in fixed-size batches; batch [b] consumes only
           RNG stream [b] and owns its scratch arrays, so the estimate is a
           pure function of [(seed, samples)] — identical for any pool size,
           including the sequential [domains = 1] default. *)
        let nbatches = (samples + batch_size - 1) / batch_size in
        let run_batch b =
          let rng = Par.Rng.make ~seed ~stream:b in
          let n_here = min batch_size (samples - (b * batch_size)) in
          let assignment = Array.make (vmax + 1) false in
          let stamped = Array.make (vmax + 1) (-1) in
          let polls = ref 0 in
          let sum = ref 0.0 and sum_sq = ref 0.0 in
          for s = 1 to n_here do
            Guard.tick guard ~site:"kl.sample" polls;
            let r = Par.Rng.float rng union_weight in
            let i =
              let rec find i =
                if r <= cumulative.(i) || i = Array.length cumulative - 1 then i
                else find (i + 1)
              in
              find 0
            in
            Array.iter
              (fun v ->
                assignment.(v) <- true;
                stamped.(v) <- s)
              clause_arr.(i);
            Array.iteri
              (fun j v ->
                if stamped.(v) <> s then
                  assignment.(v) <- Par.Rng.float rng 1.0 < probs.(j))
              var_arr;
            let n = ref 0 in
            Array.iter
              (fun c ->
                let sat = ref true in
                let k = Array.length c in
                let j = ref 0 in
                while !sat && !j < k do
                  if not assignment.(c.(!j)) then sat := false;
                  incr j
                done;
                if !sat then incr n)
              clause_arr;
            let z = 1.0 /. float_of_int !n in
            sum := !sum +. z;
            sum_sq := !sum_sq +. (z *. z)
          done;
          (!sum, !sum_sq)
        in
        let pool = match pool with Some p -> p | None -> Par.create ~domains:1 () in
        let sum, sum_sq =
          Par.map_reduce pool
            ~map:run_batch
            ~reduce:(fun (s, sq) (s', sq') -> (s +. s', sq +. sq'))
            ~init:(0.0, 0.0) nbatches
        in
        of_sums ~union_weight ~samples sum sum_sq
      end

let exact_via_sampling_identity ~prob clauses =
  match clauses with
  | [] -> 0.0
  | _ ->
      let vars = all_vars clauses in
      if List.length vars > 20 then
        invalid_arg "Karp_luby.exact_via_sampling_identity: too many variables";
      let assignment = Hashtbl.create 16 in
      let lookup v = Hashtbl.find assignment v in
      let rec go = function
        | [] ->
            let p =
              List.fold_left
                (fun acc v -> acc *. if lookup v then prob v else 1.0 -. prob v)
                1.0 vars
            in
            if List.exists (satisfies lookup) clauses then p else 0.0
        | v :: rest ->
            Hashtbl.replace assignment v true;
            let a = go rest in
            Hashtbl.replace assignment v false;
            a +. go rest
      in
      go vars
