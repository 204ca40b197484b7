(** Out-of-core columnar storage: packed, mmap-backed TIDs.

    A packed container ([.pdb]) is a versioned, checksummed binary file
    holding one whole TID: the interned {!Probdb_core.Dict} string table
    plus, per relation, each column and the probability array as
    page-aligned native-word segments. {!open_file} reads and validates
    only the header and table of contents — O(header), independent of row
    count — and maps the file with [Unix.map_file], so a column costs
    nothing until an operator touches its pages. The columnar executor
    scans the mapped arrays in place (zero copies, no per-tuple boxing);
    everything else sees an ordinary lazy {!Probdb_core.Tid.t} that
    decodes relations to the heap on demand.

    Layout (all words native-endian; the header records an endianness tag
    and the word size, and {!open_file} refuses files from a foreign
    machine rather than byteswapping):

    {v
    page 0        header: magic "PDBPACK1", version, endian tag,
                  word size, file size, TOC location + checksums
    page-aligned  per relation (sorted by name):
                    column 0 .. column k-1   (nrows words of dict ids)
                    probabilities            (nrows float64)
                  dict blob (values in id order, tag + payload)
                  domain segment (dict ids, sorted by Value.compare)
                  table of contents
    v}

    Rows are written in {!Probdb_core.Relation.fold} order (sorted by
    tuple) and values are interned in encounter order, so re-interning the
    blob on open reproduces the ids bit-for-bit: query answers over a
    packed TID are bit-identical to the CSV path for every strategy.

    Corruption — truncation, bad magic, foreign endianness, a checksum
    mismatch, a segment pointing outside the file — surfaces as the typed
    {!Probdb_core.Probdb_error.Io} (CLI exit 2), never as a [Bigarray]
    bounds crash. Header and TOC checksums are verified on every open;
    data-segment checksums only by the explicit {!verify} (so open stays
    O(header)).

    See [docs/STORAGE.md] for the format rationale and operational
    guidance. *)

module Core = Probdb_core

type t
(** An open container. Domain-safe: all serving workers can share one
    handle — lazy decoding and column mapping are serialised internally. *)

type Core.Tid.backing += Packed of t
(** The tag {!tid} puts on the TIDs it creates, letting the plan layer
    recognise a scannable packed TID (see {!backing}). *)

type int_column = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type float_column = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type view = {
  vname : string;
  varity : int;
  vrows : int;
  vcols : int_column array;  (** one mapped dict-id array per attribute *)
  vprobs : float_column;  (** mapped marginal probabilities *)
}
(** A relation's mapped columns, ready for in-place scanning. *)

val magic : string
(** ["PDBPACK1"] — the 8-byte file magic. *)

val format_version : int

val pack : ?guard:Probdb_guard.Guard.t -> Core.Tid.t -> string -> unit
(** [pack db path] writes the whole TID to a fresh container at [path].

    @raise Probdb_error.Error [Io] when the file cannot be written. *)

val open_file : ?guard:Probdb_guard.Guard.t -> string -> t
(** Validates header + TOC and maps nothing else; O(header).

    @raise Probdb_error.Error
      [Io] on any structural problem: missing/truncated file, bad magic,
      foreign endianness or word size, unsupported version, checksum
      mismatch, or a segment out of bounds. *)

val close : t -> unit
(** Closes the file descriptor. Already-mapped columns stay valid (the
    mappings outlive the descriptor); further lazy loads fail. *)

val path : t -> string
val file_size : t -> int
(** Container size in bytes. *)

val relations : t -> (string * int * int) list
(** [(name, arity, nrows)] per relation, sorted by name; from the TOC,
    touches no data pages. *)

val dict : t -> Core.Dict.t
(** The interned value table, decoded from the blob on first call and
    shared afterwards. Treat as read-only: the executor looks up query
    constants with [Dict.find_opt] and never interns during evaluation,
    so one dictionary serves all concurrent workers. *)

val view : t -> string -> view option
(** The named relation's mapped columns ([None] if absent). Columns are
    mapped on first request and cached; each first map counts into the
    [storage.cols_mapped] / [storage.bytes_mapped] metrics. *)

type int32_column =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type index = {
  starts : int32_column;
      (** [dict ids + 1] bucket offsets into [rows] *)
  rows : int32_column;
      (** row ids grouped by dict id, ascending within each group *)
}
(** A row index over one column: the rows whose column value is dict id
    [id] are [rows.{starts.{id}} .. rows.{starts.{id + 1} - 1}], in
    ascending row order. Both arrays live off the OCaml heap. *)

val index : t -> string -> int -> index option
(** [index t rel j] is the row index of column [j] of [rel] ([0 <= j <]
    its arity), built by a counting sort on first request and cached for
    the handle's lifetime, so all workers share one copy. Each build
    counts into the [storage.index_builds] / [storage.index_bytes]
    metrics. [None] when the relation does not exist or has [2^31] rows
    or more (row ids are 32-bit).

    @raise Probdb_error.Error [Io] when the handle is closed and the
    index would need a column that is not mapped yet — the same error
    {!view} raises. *)

val tid : t -> Core.Tid.t
(** The container as a lazy TID tagged [Packed t]: cardinalities and the
    domain come from the TOC; a relation is decoded to the heap only when
    something asks for its {!Probdb_core.Relation.t} (grounded
    strategies, [support], pretty-printing). Safe plans over this TID
    scan the mapped columns directly and materialise nothing. *)

val backing : Core.Tid.t -> t option
(** [backing db] is the open container behind [db], when [db] came from
    {!tid} (derived TIDs drop the tag — see {!Probdb_core.Tid.backing}). *)

val verify : t -> unit
(** Recomputes every data-segment checksum (faults in the whole file).

    @raise Probdb_error.Error [Io] naming the first corrupt segment. *)

(** Per-handle observability, for the [storage] block of {!Probdb_obs.Stats}
    (process-wide totals live in the [storage.*] metrics). *)

val open_seconds : t -> float
(** Wall-clock time {!open_file} spent on this handle. *)

val bytes_mapped : t -> int
(** Bytes of column segments mapped so far via {!view}. *)

val cols_mapped : t -> int
val relations_materialized : t -> int
(** Relations decoded to the heap so far via {!tid}'s lazy slots. *)
