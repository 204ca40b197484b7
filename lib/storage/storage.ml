module Core = Probdb_core
module Dict = Core.Dict
module Value = Core.Value
module Relation = Core.Relation
module Tid = Core.Tid
module Err = Core.Probdb_error
module Guard = Probdb_guard.Guard
module Metrics = Probdb_obs.Metrics
module Clock = Probdb_obs.Clock

let magic = "PDBPACK1"
let format_version = 1
let page = 4096
let word = 8

(* Fixed bit pattern whose byteswap differs from itself: a reader on a
   foreign-endian machine sees the swapped value and can say so precisely. *)
let endian_tag = 0x0123456789ABCDEFL
let endian_tag_swapped = Int64.of_string "0xEFCDAB8967452301"

let m_opens = Metrics.counter "storage.opens"
let m_open_s = Metrics.histogram "storage.open_s"
let m_packs = Metrics.counter "storage.packs"
let m_pack_s = Metrics.histogram "storage.pack_s"
let m_bytes_mapped = Metrics.counter "storage.bytes_mapped"
let m_cols_mapped = Metrics.counter "storage.cols_mapped"
let m_rels_mat = Metrics.counter "storage.relations_materialized"
let m_index_builds = Metrics.counter "storage.index_builds"
let m_index_bytes = Metrics.counter "storage.index_bytes"

let io_error path fmt =
  Printf.ksprintf (fun message -> Err.raise_ (Err.Io { path; message })) fmt

(* ------------------------------------------------------------------ *)
(* Checksums: FNV-1a over native 64-bit words (OCaml int arithmetic —
   boxed Int64 folds would crawl over multi-GB segments). Deterministic
   because the header pins word size and endianness. *)

let fnv_prime = 0x100000001b3
let fnv_init = 0x2545F4914F6CDD1D

let crc_step h w = (h lxor w) * fnv_prime land max_int

let crc_bytes ?(h = fnv_init) b off len =
  let h = ref h and i = ref off in
  let stop = off + len in
  while !i < stop do
    h := crc_step !h (Int64.to_int (Bytes.get_int64_ne b !i));
    i := !i + word
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Little codec helpers: native u64 fields, length-prefixed strings.   *)

let buf_u64 b n = Buffer.add_int64_ne b (Int64.of_int n)

let buf_str b s =
  buf_u64 b (String.length s);
  Buffer.add_string b s

let rd_u64 b pos =
  let v = Int64.to_int (Bytes.get_int64_ne b !pos) in
  pos := !pos + word;
  v

let rd_str b pos =
  let n = rd_u64 b pos in
  if n < 0 || n > Bytes.length b - !pos then invalid_arg "rd_str";
  let s = Bytes.sub_string b !pos n in
  pos := !pos + n;
  s

let pad8 n = (n + 7) land lnot 7
let pad_page n = (n + page - 1) / page * page

(* ------------------------------------------------------------------ *)
(* Metadata                                                            *)

type seg = { soff : int; scrc : int }

type int_column = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type float_column =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type int32_column =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type index = { starts : int32_column; rows : int32_column }

type rel_meta = {
  rname : string;
  arity : int;
  nrows : int;
  col_segs : seg array;
  prob_seg : seg;
  mutable mcols : int_column option array;  (* mapped lazily, cached *)
  mutable mprobs : float_column option;
  midx : index option Atomic.t array;
      (* built lazily, cached; atomic so a reader outside the lock sees
         the arrays' contents once it sees the index *)
}

type t = {
  tpath : string;
  fd : Unix.file_descr;
  size : int;
  rels : rel_meta array;  (* sorted by name *)
  dict_seg : seg;
  dict_len : int;  (* padded blob bytes *)
  dict_count : int;
  dom_seg : seg;
  dom_count : int;
  toc_off : int;
  toc_len : int;
  lock : Mutex.t;
  mutable hdict : Dict.t option;
  mutable closed : bool;
  opened_s : float;
  mutable h_bytes_mapped : int;
  mutable h_cols_mapped : int;
  mutable h_rels_mat : int;
}

type Tid.backing += Packed of t

type view = {
  vname : string;
  varity : int;
  vrows : int;
  vcols : int_column array;
  vprobs : float_column;
}

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)

let dict_blob dict =
  let b = Buffer.create 4096 in
  let n = Dict.size dict in
  buf_u64 b n;
  for i = 0 to n - 1 do
    match Dict.value dict i with
    | Value.Int k ->
        Buffer.add_char b '\000';
        buf_u64 b k
    | Value.Str s ->
        Buffer.add_char b '\001';
        buf_str b s
    | Value.Bool v ->
        Buffer.add_char b '\002';
        Buffer.add_char b (if v then '\001' else '\000')
  done;
  Buffer.to_bytes b

let decode_dict ~path blob count =
  let dict = Dict.create ~size_hint:(2 * count) () in
  let pos = ref word in
  (try
     for _ = 1 to count do
       let tag = Bytes.get blob !pos in
       incr pos;
       let v =
         match tag with
         | '\000' -> Value.Int (rd_u64 blob pos)
         | '\001' -> Value.Str (rd_str blob pos)
         | '\002' ->
             let c = Bytes.get blob !pos in
             incr pos;
             Value.Bool (c <> '\000')
         | _ -> invalid_arg "tag"
       in
       ignore (Dict.intern dict v)
     done
   with Invalid_argument _ ->
     io_error path "corrupt dictionary blob (bad entry encoding)");
  dict

let pack ?(guard = Guard.unlimited) db path =
  Err.guard_io ~path @@ fun () ->
  Guard.io guard ~path;
  let t0 = Clock.now () in
  let dict = Dict.create () in
  (* Interning order is the format's id assignment: row-major in sorted
     relation-name then sorted tuple order, then leftover domain values.
     [decode_dict] replays the blob in this order, so open reproduces the
     exact ids the executor will find in the column segments. *)
  let rels =
    List.map
      (fun r ->
        let name = Relation.name r in
        let arity = Relation.arity r in
        let n = Relation.cardinal r in
        let cols = Array.init arity (fun _ -> Array.make n 0) in
        let probs = Array.make n 0.0 in
        let i = ref 0 in
        Relation.fold
          (fun t p () ->
            List.iteri (fun j v -> cols.(j).(!i) <- Dict.intern dict v) t;
            probs.(!i) <- p;
            incr i)
          r ();
        (name, arity, n, cols, probs))
      (Tid.relations db)
  in
  let dom_ids = List.map (Dict.intern dict) (Tid.domain db) in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let pos = ref 0 in
      let write_padded bytes =
        (* every segment starts on a page boundary and is zero-padded to
           the next one: Unix.map_file demands page-aligned offsets *)
        let len = Bytes.length bytes in
        let off = !pos in
        output_bytes oc bytes;
        let padded = pad_page (off + len) in
        if padded > off + len then
          output_bytes oc (Bytes.create (padded - off - len));
        pos := padded;
        { soff = off; scrc = crc_bytes bytes 0 len }
      in
      let word_seg n fill =
        let b = Bytes.create (n * word) in
        for i = 0 to n - 1 do
          Bytes.set_int64_ne b (i * word) (fill i)
        done;
        write_padded b
      in
      (* header placeholder *)
      output_bytes oc (Bytes.create page);
      pos := page;
      let packed_rels =
        List.map
          (fun (name, arity, n, cols, probs) ->
            let col_segs =
              Array.map
                (fun ids -> word_seg n (fun i -> Int64.of_int ids.(i)))
                cols
            in
            let prob_seg =
              word_seg n (fun i -> Int64.bits_of_float probs.(i))
            in
            (name, arity, n, col_segs, prob_seg))
          rels
      in
      let blob = dict_blob dict in
      let blob_padded =
        let b = Bytes.make (pad8 (Bytes.length blob)) '\000' in
        Bytes.blit blob 0 b 0 (Bytes.length blob);
        b
      in
      let dict_len = Bytes.length blob_padded in
      let dict_seg = write_padded blob_padded in
      let dom = Array.of_list dom_ids in
      let dom_seg =
        word_seg (Array.length dom) (fun i -> Int64.of_int dom.(i))
      in
      (* table of contents *)
      let toc = Buffer.create 1024 in
      buf_u64 toc dict_seg.soff;
      buf_u64 toc dict_len;
      buf_u64 toc dict_seg.scrc;
      buf_u64 toc (Dict.size dict);
      buf_u64 toc dom_seg.soff;
      buf_u64 toc dom_seg.scrc;
      buf_u64 toc (Array.length dom);
      buf_u64 toc (List.length packed_rels);
      List.iter
        (fun (name, arity, n, col_segs, prob_seg) ->
          buf_str toc name;
          buf_u64 toc arity;
          buf_u64 toc n;
          buf_u64 toc prob_seg.soff;
          buf_u64 toc prob_seg.scrc;
          Array.iter
            (fun s ->
              buf_u64 toc s.soff;
              buf_u64 toc s.scrc)
            col_segs)
        packed_rels;
      let toc_bytes =
        let raw = Buffer.to_bytes toc in
        let b = Bytes.make (pad8 (Bytes.length raw)) '\000' in
        Bytes.blit raw 0 b 0 (Bytes.length raw);
        b
      in
      let toc_len = Bytes.length toc_bytes in
      let toc_seg = write_padded toc_bytes in
      let file_size = !pos in
      (* patch the header now that every offset is known *)
      let hdr = Bytes.make page '\000' in
      Bytes.blit_string magic 0 hdr 0 8;
      Bytes.set_int64_ne hdr 8 (Int64.of_int format_version);
      Bytes.set_int64_ne hdr 16 endian_tag;
      Bytes.set_int64_ne hdr 24 (Int64.of_int word);
      Bytes.set_int64_ne hdr 32 (Int64.of_int file_size);
      Bytes.set_int64_ne hdr 40 (Int64.of_int toc_seg.soff);
      Bytes.set_int64_ne hdr 48 (Int64.of_int toc_len);
      Bytes.set_int64_ne hdr 56 (Int64.of_int toc_seg.scrc);
      Bytes.set_int64_ne hdr 64 (Int64.of_int (crc_bytes hdr 0 64));
      seek_out oc 0;
      output_bytes oc hdr);
  Metrics.incr m_packs;
  Metrics.observe m_pack_s (Clock.now () -. t0)

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)

let pread_exact ~path fd off len =
  let b = Bytes.create len in
  let pos = ref 0 in
  (try
     ignore (Unix.lseek fd off Unix.SEEK_SET);
     while !pos < len do
       let n = Unix.read fd b !pos (len - !pos) in
       if n = 0 then io_error path "truncated read at offset %d" (off + !pos);
       pos := !pos + n
     done
   with Unix.Unix_error (e, _, _) ->
     io_error path "read failed at offset %d: %s" off (Unix.error_message e));
  b

let check_seg ~path ~size ~what off len =
  if off < page || off mod page <> 0 then
    io_error path "corrupt container: %s segment at unaligned offset %d" what
      off;
  if len < 0 || off + len > size then
    io_error path
      "truncated container: %s segment [%d, %d) extends past end of file (%d \
       bytes)"
      what off (off + len) size

let parse_toc ~path ~size bytes =
  let pos = ref 0 in
  try
    let dict_off = rd_u64 bytes pos in
    let dict_len = rd_u64 bytes pos in
    let dict_crc = rd_u64 bytes pos in
    let dict_count = rd_u64 bytes pos in
    let dom_off = rd_u64 bytes pos in
    let dom_crc = rd_u64 bytes pos in
    let dom_count = rd_u64 bytes pos in
    let nrels = rd_u64 bytes pos in
    if dict_count < 0 || dom_count < 0 || nrels < 0 || nrels > 1_000_000 then
      invalid_arg "counts";
    check_seg ~path ~size ~what:"dictionary" dict_off dict_len;
    check_seg ~path ~size ~what:"domain" dom_off (dom_count * word);
    let rels =
      Array.init nrels (fun _ ->
          let rname = rd_str bytes pos in
          let arity = rd_u64 bytes pos in
          let nrows = rd_u64 bytes pos in
          if arity < 0 || nrows < 0 then invalid_arg "rel";
          let prob_off = rd_u64 bytes pos in
          let prob_crc = rd_u64 bytes pos in
          let col_segs =
            Array.init arity (fun _ ->
                let o = rd_u64 bytes pos in
                let c = rd_u64 bytes pos in
                { soff = o; scrc = c })
          in
          check_seg ~path ~size
            ~what:(rname ^ " probabilities")
            prob_off (nrows * word);
          Array.iteri
            (fun j s ->
              check_seg ~path ~size
                ~what:(Printf.sprintf "%s column %d" rname j)
                s.soff (nrows * word))
            col_segs;
          {
            rname;
            arity;
            nrows;
            col_segs;
            prob_seg = { soff = prob_off; scrc = prob_crc };
            mcols = Array.make arity None;
            mprobs = None;
            midx = Array.init arity (fun _ -> Atomic.make None);
          })
    in
    ( rels,
      { soff = dict_off; scrc = dict_crc },
      dict_len,
      dict_count,
      { soff = dom_off; scrc = dom_crc },
      dom_count )
  with Invalid_argument _ ->
    io_error path "corrupt container: table of contents does not parse"

let open_file ?(guard = Guard.unlimited) path =
  Guard.io guard ~path;
  let t0 = Clock.now () in
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      io_error path "%s" (Unix.error_message e)
  in
  match
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size < page then
        io_error path
          "truncated container: %d bytes, need at least one %d-byte header \
           page"
          size page;
      let hdr = pread_exact ~path fd 0 page in
      if Bytes.sub_string hdr 0 8 <> magic then
        io_error path "bad magic: not a probdb packed container";
      let etag = Bytes.get_int64_ne hdr 16 in
      if Int64.equal etag endian_tag_swapped then
        io_error path
          "endianness mismatch: container was written on a foreign-endian \
           machine";
      if not (Int64.equal etag endian_tag) then
        io_error path "corrupt container: bad endianness tag";
      let version = Int64.to_int (Bytes.get_int64_ne hdr 8) in
      if version <> format_version then
        io_error path "unsupported container version %d (this build reads %d)"
          version format_version;
      let wsize = Int64.to_int (Bytes.get_int64_ne hdr 24) in
      if wsize <> word then
        io_error path "unsupported word size %d (this build uses %d)" wsize
          word;
      let hcrc = Int64.to_int (Bytes.get_int64_ne hdr 64) in
      if crc_bytes hdr 0 64 <> hcrc then
        io_error path "corrupt container: header checksum mismatch";
      let rec_size = Int64.to_int (Bytes.get_int64_ne hdr 32) in
      if rec_size <> size then
        io_error path
          "truncated container: header records %d bytes but file has %d"
          rec_size size;
      let toc_off = Int64.to_int (Bytes.get_int64_ne hdr 40) in
      let toc_len = Int64.to_int (Bytes.get_int64_ne hdr 48) in
      let toc_crc = Int64.to_int (Bytes.get_int64_ne hdr 56) in
      check_seg ~path ~size ~what:"table-of-contents" toc_off toc_len;
      if toc_len mod word <> 0 then
        io_error path "corrupt container: table of contents length %d" toc_len;
      let toc_bytes = pread_exact ~path fd toc_off toc_len in
      if crc_bytes toc_bytes 0 toc_len <> toc_crc then
        io_error path "corrupt container: table-of-contents checksum mismatch";
      let rels, dict_seg, dict_len, dict_count, dom_seg, dom_count =
        parse_toc ~path ~size toc_bytes
      in
      let opened_s = Clock.now () -. t0 in
      Metrics.incr m_opens;
      Metrics.observe m_open_s opened_s;
      {
        tpath = path;
        fd;
        size;
        rels;
        dict_seg;
        dict_len;
        dict_count;
        dom_seg;
        dom_count;
        toc_off;
        toc_len;
        lock = Mutex.create ();
        hdict = None;
        closed = false;
        opened_s;
        h_bytes_mapped = 0;
        h_cols_mapped = 0;
        h_rels_mat = 0;
      })
      ()
  with
  | t -> t
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let close t =
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        t.closed <- true;
        try Unix.close t.fd with Unix.Unix_error _ -> ()
      end)

let path t = t.tpath
let file_size t = t.size
let open_seconds t = t.opened_s
let bytes_mapped t = t.h_bytes_mapped
let cols_mapped t = t.h_cols_mapped
let relations_materialized t = t.h_rels_mat

let relations t =
  Array.to_list t.rels |> List.map (fun m -> (m.rname, m.arity, m.nrows))

let fail_closed t =
  if t.closed then io_error t.tpath "container is closed"

(* Mapping helpers. [Unix.map_file] itself is lazy — pages fault in on
   first touch — so "mapping" a column is VMA setup, not I/O. *)

let note_mapped t bytes =
  t.h_bytes_mapped <- t.h_bytes_mapped + bytes;
  t.h_cols_mapped <- t.h_cols_mapped + 1;
  Metrics.add m_bytes_mapped bytes;
  Metrics.incr m_cols_mapped

let map_ints t off n : int_column =
  Bigarray.array1_of_genarray
    (Unix.map_file t.fd ~pos:(Int64.of_int off) Bigarray.int Bigarray.c_layout
       false [| n |])

let map_floats t off n : float_column =
  Bigarray.array1_of_genarray
    (Unix.map_file t.fd ~pos:(Int64.of_int off) Bigarray.float64
       Bigarray.c_layout false [| n |])

let find_rel t name =
  (* few relations: linear scan beats building an index *)
  let rec go i =
    if i >= Array.length t.rels then None
    else if String.equal t.rels.(i).rname name then Some t.rels.(i)
    else go (i + 1)
  in
  go 0

(* The caller holds [t.lock]. *)
let col_locked t m j =
  match m.mcols.(j) with
  | Some c -> c
  | None ->
      fail_closed t;
      let c = map_ints t m.col_segs.(j).soff m.nrows in
      m.mcols.(j) <- Some c;
      note_mapped t (m.nrows * word);
      c

let col t m j =
  match m.mcols.(j) with
  | Some c -> c
  | None -> Mutex.protect t.lock (fun () -> col_locked t m j)

let probs_col t m =
  match m.mprobs with
  | Some c -> c
  | None ->
      Mutex.protect t.lock (fun () ->
          match m.mprobs with
          | Some c -> c
          | None ->
              fail_closed t;
              let c = map_floats t m.prob_seg.soff m.nrows in
              m.mprobs <- Some c;
              note_mapped t (m.nrows * word);
              c)

(* Counting sort of one id column over the dense dictionary ids. Bucket
   [id] is [rows.{starts.{id}} .. rows.{starts.{id+1} - 1}]: filling from
   the last row backwards leaves each bucket in ascending row order. An id
   outside [0, ids) can never equal a dictionary id, so it joins no
   bucket. Both arrays live off the OCaml heap. *)
let build_index ~ids (c : int_column) =
  let n = Bigarray.Array1.dim c in
  let in_range id = id >= 0 && id < ids in
  let starts : int32_column =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (ids + 1)
  in
  Bigarray.Array1.fill starts 0l;
  for i = 0 to n - 1 do
    let id = c.{i} in
    if in_range id then starts.{id} <- Int32.succ starts.{id}
  done;
  (* inclusive prefix sums: [starts.{id}] is the end of bucket [id] *)
  for id = 1 to ids - 1 do
    starts.{id} <- Int32.add starts.{id} starts.{id - 1}
  done;
  let total = if ids = 0 then 0 else Int32.to_int starts.{ids - 1} in
  starts.{ids} <- Int32.of_int total;
  let rows : int32_column =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout total
  in
  for i = n - 1 downto 0 do
    let id = c.{i} in
    if in_range id then begin
      let pos = Int32.pred starts.{id} in
      starts.{id} <- pos;
      rows.{Int32.to_int pos} <- Int32.of_int i
    end
  done;
  { starts; rows }

(* row ids and bucket offsets are Int32 *)
let index_limit = 1 lsl 31

let index t name j =
  match find_rel t name with
  | None -> None
  | Some m when m.nrows >= index_limit -> None
  | Some m -> (
      match Atomic.get m.midx.(j) with
      | Some _ as ix -> ix
      | None ->
          Mutex.protect t.lock (fun () ->
              match Atomic.get m.midx.(j) with
              | Some _ as ix -> ix
              | None ->
                  let ix = build_index ~ids:t.dict_count (col_locked t m j) in
                  Atomic.set m.midx.(j) (Some ix);
                  Metrics.incr m_index_builds;
                  Metrics.add m_index_bytes
                    (4 * (Bigarray.Array1.dim ix.starts + Bigarray.Array1.dim ix.rows));
                  Some ix))

let view t name =
  Option.map
    (fun m ->
      {
        vname = m.rname;
        varity = m.arity;
        vrows = m.nrows;
        vcols = Array.init m.arity (fun j -> col t m j);
        vprobs = probs_col t m;
      })
    (find_rel t name)

let dict t =
  match t.hdict with
  | Some d -> d
  | None ->
      Mutex.protect t.lock (fun () ->
          match t.hdict with
          | Some d -> d
          | None ->
              fail_closed t;
              let blob = pread_exact ~path:t.tpath t.fd t.dict_seg.soff t.dict_len in
              if crc_bytes blob 0 t.dict_len <> t.dict_seg.scrc then
                io_error t.tpath
                  "corrupt container: dictionary checksum mismatch";
              let d = decode_dict ~path:t.tpath blob t.dict_count in
              t.hdict <- Some d;
              d)

let domain t =
  let d = dict t in
  let ids = Mutex.protect t.lock (fun () ->
      fail_closed t;
      map_ints t t.dom_seg.soff t.dom_count)
  in
  List.init t.dom_count (fun i -> Dict.value d ids.{i})

let materialize t m =
  let d = dict t in
  let cols = Array.init m.arity (fun j -> col t m j) in
  let probs = probs_col t m in
  let b = Relation.Builder.create m.rname in
  for i = 0 to m.nrows - 1 do
    let tuple = List.init m.arity (fun j -> Dict.value d cols.(j).{i}) in
    Relation.Builder.add b tuple probs.{i}
  done;
  t.h_rels_mat <- t.h_rels_mat + 1;
  Metrics.incr m_rels_mat;
  Relation.Builder.finish ~arity:m.arity b

let tid t =
  Tid.make_lazy ~backing:(Packed t)
    ~domain:(fun () -> domain t)
    (Array.to_list t.rels
    |> List.map (fun m -> (m.rname, m.nrows, fun () -> materialize t m)))

let backing db =
  match Tid.backing db with Some (Packed t) -> Some t | _ -> None

(* ------------------------------------------------------------------ *)
(* Full verification: recompute every data-segment checksum.           *)

let crc_region t off len =
  (* streamed pread so verify works on containers larger than RAM *)
  let chunk = 1 lsl 20 in
  let h = ref fnv_init in
  let done_ = ref 0 in
  while !done_ < len do
    let n = min chunk (len - !done_) in
    let b = pread_exact ~path:t.tpath t.fd (off + !done_) n in
    h := crc_bytes ~h:!h b 0 n;
    done_ := !done_ + n
  done;
  !h

let verify t =
  Mutex.protect t.lock (fun () -> fail_closed t);
  let check what seg len =
    if crc_region t seg.soff len <> seg.scrc then
      io_error t.tpath "corrupt container: %s checksum mismatch" what
  in
  check "dictionary" t.dict_seg t.dict_len;
  check "domain" t.dom_seg (t.dom_count * word);
  Array.iter
    (fun m ->
      check (m.rname ^ " probabilities") m.prob_seg (m.nrows * word);
      Array.iteri
        (fun j s -> check (Printf.sprintf "%s column %d" m.rname j) s (m.nrows * word))
        m.col_segs)
    t.rels

(* Install the format-sniffing hook: [Csv_io.load_any] dispatches [.pdb]
   files here once this library is linked. *)
let () =
  Core.Csv_io.register_packed_loader (fun ~guard path ->
      tid (open_file ~guard path))
