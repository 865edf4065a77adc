(** Reusable packed-state writer.

    A [Pack.t] is a growable byte buffer. The state-space explorers reset
    one writer per state, stream the state fields through it, and hand it
    to {!Stateset.find_or_add}, which hashes the bytes once (FNV-1a) — no
    intermediate string, tuple or list is allocated per state.

    Encodings:
    - {!add_uint}: LEB128 varint (7 bits per byte, high bit = continue) —
      used for the fields with no useful static bound (token counts,
      relative completion times, ring lengths). Small values, the common
      case by far, cost one byte.
    - {!add_int}: zigzag-mapped varint for fields that may be negative
      (sentinels such as "no current actor").
    - {!add_fixed}: little-endian fixed width for fields with a static
      per-graph bound (schedule positions, wheel phases), with the width
      chosen once per graph via {!width_for}.

    A byte sequence written as a fixed field layout followed by
    length-prefixed varint groups is uniquely decodable, so byte equality
    of two packs implies field-by-field equality — the property both the
    seen-set and the memo cache keys rely on. *)

type t

val create : ?initial:int -> unit -> t
(** A writer with an [initial]-byte buffer (default 256); the buffer grows
    by doubling and is reused across {!reset}s. *)

val reset : t -> unit
(** Forget the contents. O(1). *)

val add_byte : t -> int -> unit
(** [add_byte t v] appends the low 8 bits of [v]. *)

val add_uint : t -> int -> unit
(** LEB128 varint. [v] must be non-negative. *)

val add_uint_array : t -> int array -> unit
(** [add_uint_array t a] appends every element of [a] as a varint, in
    order: the same bytes as one {!add_uint} per element, in one call
    (token vectors). *)

val add_int : t -> int -> unit
(** Zigzag varint; any native int. *)

val add_fixed : t -> width:int -> int -> unit
(** [width] little-endian bytes of [v]; [v] must fit (callers derive
    [width] from a static bound with {!width_for}). *)

val width_for : int -> int
(** Bytes needed to represent every value in [\[0, bound\]]. *)

val len : t -> int
val hash : t -> int
(** FNV-1a over the bytes written since the last {!reset}, folded to a
    non-negative int. O(length): computed on demand, once per state by the
    seen-set. *)

val unsafe_bytes : t -> Bytes.t
(** The underlying buffer; only the first {!len} bytes are meaningful, and
    the reference is invalidated by the next write (growth reallocates). *)

val contents : t -> string
(** A fresh string copy of the packed bytes (memo cache keys). *)
