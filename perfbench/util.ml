(* Small helpers shared by the benchmark modules: wall-clock timing,
   order statistics, growable float vectors, JSON field access and file
   housekeeping. *)

module Json = Probdb_obs.Json

let now = Unix.gettimeofday

(* Seconds [f ()] took, with its result. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Mean seconds per call of [f] over [reps] calls: sub-microsecond calls
   need repetition, the clock has microsecond resolution. *)
let per_call ~reps f =
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int reps

(* Nearest-rank quantile of an unsorted array; 0 when empty. *)
let quantile values q =
  let n = Array.length values in
  if n = 0 then 0.0
  else begin
    let a = Array.copy values in
    Array.sort Float.compare a;
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
  end

let median values = quantile values 0.5

let sum values = Array.fold_left ( +. ) 0.0 values

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* A growable float array: the load generator records one latency per
   request without knowing the count up front. *)
module Vec = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (2 * v.len) 0.0 in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.data 0 v.len
end

let member path j =
  List.fold_left
    (fun acc k -> match acc with Some j -> Json.member k j | None -> None)
    (Some j) path

let num path j =
  match member path j with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> 0.0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let log fmt = Printf.ksprintf (fun s -> print_endline s) fmt
