(* E20 — out-of-core packed storage (EXPERIMENTS.md E20).

   Per scale (total tuple count), three measurements over a synthetic
   three-relation database — R(x) small, S(x,y) large and scanned, U(x,y)
   large and never touched by the query:

   1. Open time: `Csv_io.load_dir` (parse + intern every row) vs
      `Storage.open_file` (header + TOC only; O(header)). The headline is
      the speedup at the largest scale — the acceptance floor is 100x at
      full sizes.

   2. Cold time-to-first-answer: load-then-eval vs open-then-eval of the
      same safe query through the forced safe plan. The packed side scans
      the mapped columns in place, so only the pages the plan touches
      fault in.

   3. Lazy-fault accounting: bytes of column segments actually mapped by
      the cold query over the container size. U's columns never map, so
      the fraction stays well below 1 — the out-of-core contract.

   4. Selective point query `exists y. S(7,y) && R(y)`: the safe plan's
      scan of S(7,y) probing S's row index against the full filtered
      gather over every row of S, plus the one-time index build.

   Every scale also bit-compares the two answers (and, for the point
   query, indexed against gathered and packed against CSV). PROBDB_BENCH_SMOKE=1
   shrinks the scales so the run doubles as the schema check behind
   `compare --validate-storage` (wired into `make bench-smoke`). *)

module Json = Probdb_obs.Json
module Core = Probdb_core
module Storage = Probdb_storage.Storage
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module L = Probdb_logic
module Exec = Probdb_exec.Exec

let smoke = Sys.getenv_opt "PROBDB_BENCH_SMOKE" <> None
let scales = if smoke then [ 2_000; 20_000 ] else [ 100_000; 1_000_000; 10_000_000 ]

let query = L.Parser.parse_sentence "exists x y. R(x) && S(x,y)"
let point_query = L.Parser.parse_sentence "exists y. S(7,y) && R(y)"
let config = { E.default_config with E.strategies = [ E.Safe_plan ] }

(* Deterministic marginals: dense in (0,1), never 0 or 1, cheap. *)
let prob i = 0.05 +. (0.9 *. Float.rem (float_of_int i *. 0.6180339887498949) 1.0)

(* Write the CSV directory directly — the load we time IS the parse of
   these files, so the generator must not go through a Relation first. *)
let synth_csv dir n =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let dx = min n 1_000 in
  let file name f =
    let oc = open_out (Filename.concat dir (name ^ ".csv")) in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  in
  let s_rows = n and u_rows = n / 2 and r_rows = max 1 (n / 100) in
  file "S" (fun oc ->
      for i = 0 to s_rows - 1 do
        Printf.fprintf oc "%d,%d,%.17g\n" (i mod dx) (i / dx) (prob i)
      done);
  file "U" (fun oc ->
      for i = 0 to u_rows - 1 do
        Printf.fprintf oc "%d,%d,%.17g\n" (i mod dx) (i / dx) (prob (i + 7))
      done);
  file "R" (fun oc ->
      (* plain [i], not [i mod dx]: R can outgrow the x-domain, and modular
         values would collide into duplicate tuples *)
      for i = 0 to r_rows - 1 do
        Printf.fprintf oc "%d,%.17g\n" i (prob (i + 13))
      done);
  s_rows + u_rows + r_rows

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let eval_value ?(query = query) db =
  match E.eval ~config db query with
  | Ok a -> a.Answer.value
  | Error e -> failwith (Core.Probdb_error.render e)

type row = {
  rows : int;
  file_bytes : int;
  csv_load_s : float;
  pack_s : float;
  open_s : float;
  open_speedup : float;
  cold_csv_s : float;
  cold_packed_s : float;
  cold_speedup : float;
  bytes_mapped : int;
  mapped_fraction : float;
  identical : bool;
  index_build_s : float;
  index_bytes : int;
  point_indexed_s : float;
  point_gather_s : float;
  point_identical : bool;
}

(* The point query's safe plan, Project([], Join(S(7,y), R(y))), run
   straight on the executor so the scan of S can go with or without the
   row index. *)
let point_value ?index t =
  let lookup = Core.Dict.find_opt (Storage.dict t) in
  let scan ?index name args =
    let v = Option.get (Storage.view t name) in
    Exec.scan_cols ?index ~lookup ~cols:v.Storage.vcols ~probs:v.Storage.vprobs
      (L.Cq.atom name args)
  in
  let s = scan ?index "S" [ L.Fo.Const (Core.Value.int 7); L.Fo.Var "y" ] in
  Exec.boolean_prob (Exec.project [] (Exec.join s (scan "R" [ L.Fo.Var "y" ])))

let bits = Int64.bits_of_float
let point_speedup r = r.point_gather_s /. Float.max 1e-9 r.point_indexed_s

let measure n =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "probdb_e20_csv" in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "probdb_e20.pdb" in
  rm_rf dir;
  let rows = synth_csv dir n in
  (* the CSV side, measured as one cold load-then-eval *)
  let db, csv_load_s = Common.time (fun () -> Core.Csv_io.load_dir dir) in
  let csv_value, csv_eval_s = Common.time (fun () -> eval_value db) in
  let cold_csv_s = csv_load_s +. csv_eval_s in
  let csv_point = eval_value ~query:point_query db in
  let _, pack_s = Common.time (fun () -> Storage.pack db path) in
  (* open is O(header): cheap enough to take a median of several runs *)
  let open_s =
    Common.timed ~repeat:5 (fun () -> Storage.close (Storage.open_file path))
  in
  (* the packed side, cold: open, eval over the mapped columns, account
     the pages the plan actually faulted in *)
  let t = Storage.open_file path in
  let packed_value, packed_eval_s =
    Common.time (fun () -> eval_value (Storage.tid t))
  in
  let cold_packed_s = Storage.open_seconds t +. packed_eval_s in
  let file_bytes = Storage.file_size t in
  let bytes_mapped = Storage.bytes_mapped t in
  Storage.close t;
  (* the selective point query on a fresh handle: build S's index once,
     then time the probe against the full gather *)
  let t = Storage.open_file path in
  let index, index_build_s = Common.time (fun () -> Storage.index t "S" 0) in
  let index_bytes =
    match index with
    | Some { Storage.starts; rows } ->
        4 * (Bigarray.Array1.dim starts + Bigarray.Array1.dim rows)
    | None -> 0
  in
  let probe () = point_value ~index:(Storage.index t "S") t in
  let gather () = point_value t in
  let point_indexed_s = Common.timed ~repeat:21 probe in
  let point_gather_s = Common.timed ~repeat:5 gather in
  let point_identical =
    bits (probe ()) = bits (gather ())
    && bits (eval_value ~query:point_query (Storage.tid t)) = bits csv_point
  in
  Storage.close t;
  rm_rf dir;
  Sys.remove path;
  {
    rows;
    file_bytes;
    csv_load_s;
    pack_s;
    open_s;
    open_speedup = csv_load_s /. Float.max 1e-9 open_s;
    cold_csv_s;
    cold_packed_s;
    cold_speedup = cold_csv_s /. Float.max 1e-9 cold_packed_s;
    bytes_mapped;
    mapped_fraction = float_of_int bytes_mapped /. float_of_int file_bytes;
    identical = bits csv_value = bits packed_value;
    index_build_s;
    index_bytes;
    point_indexed_s;
    point_gather_s;
    point_identical;
  }

let run () =
  Common.header "E20: out-of-core packed storage";
  Common.section "open + cold-query latency, csv directory vs packed container";
  let results = List.map measure scales in
  Common.table
    ([ "tuples"; "file"; "csv load"; "pack"; "open"; "speedup"; "cold csv";
       "cold packed"; "mapped" ]
    :: List.map
         (fun r ->
           [ string_of_int r.rows;
             Printf.sprintf "%.1fMB" (float_of_int r.file_bytes /. 1e6);
             Common.pretty_time r.csv_load_s;
             Common.pretty_time r.pack_s;
             Common.pretty_time r.open_s;
             Printf.sprintf "%.0fx" r.open_speedup;
             Common.pretty_time r.cold_csv_s;
             Common.pretty_time r.cold_packed_s;
             Printf.sprintf "%.0f%%" (100.0 *. r.mapped_fraction) ])
         results);
  Common.section "selective point query, row index vs full gather";
  Common.table
    ([ "tuples"; "index build"; "index"; "probe"; "gather"; "speedup" ]
    :: List.map
         (fun r ->
           [ string_of_int r.rows;
             Common.pretty_time r.index_build_s;
             Printf.sprintf "%.1fMB" (float_of_int r.index_bytes /. 1e6);
             Common.pretty_time r.point_indexed_s;
             Common.pretty_time r.point_gather_s;
             Printf.sprintf "%.0fx" (point_speedup r) ])
         results);
  let last = List.nth results (List.length results - 1) in
  let identical = List.for_all (fun r -> r.identical) results in
  let point_identical = List.for_all (fun r -> r.point_identical) results in
  Printf.printf
    "\nopen speedup at %d tuples: %.0fx; answers bit-identical: %b; point \
     query bit-identical: %b\n"
    last.rows last.open_speedup identical point_identical;
  Common.bench_json "storage"
    [
      ("smoke", Json.Bool smoke);
      ( "scales",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("rows", Json.Int r.rows);
                   ("file_bytes", Json.Int r.file_bytes);
                   ("csv_load_s", Json.Float r.csv_load_s);
                   ("pack_s", Json.Float r.pack_s);
                   ("open_s", Json.Float r.open_s);
                   ("open_speedup", Json.Float r.open_speedup);
                   ("cold_csv_s", Json.Float r.cold_csv_s);
                   ("cold_packed_s", Json.Float r.cold_packed_s);
                   ("cold_speedup", Json.Float r.cold_speedup);
                   ("bytes_mapped", Json.Int r.bytes_mapped);
                   ("mapped_fraction", Json.Float r.mapped_fraction);
                   ("index_build_s", Json.Float r.index_build_s);
                   ("index_bytes", Json.Int r.index_bytes);
                   ("point_indexed_s", Json.Float r.point_indexed_s);
                   ("point_gather_s", Json.Float r.point_gather_s);
                   ("point_speedup", Json.Float (point_speedup r));
                 ])
             results) );
      ("max_open_speedup", Json.Float last.open_speedup);
      ("bit_identical", Json.Bool identical);
      ("point_bit_identical", Json.Bool point_identical);
    ]

let bechamel_tests =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "probdb_e20_micro.pdb" in
  let ready =
    lazy
      (let db =
         Probdb_workload.Gen.random_tid ~seed:5 ~domain_size:8
           [ Probdb_workload.Gen.spec ~density:0.5 "R" 1;
             Probdb_workload.Gen.spec ~density:0.4 "S" 2 ]
       in
       Storage.pack db path)
  in
  [
    Bechamel.Test.make ~name:"storage/open+close"
      (Bechamel.Staged.stage (fun () ->
           Lazy.force ready;
           Storage.close (Storage.open_file path)));
  ]
