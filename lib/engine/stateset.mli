(** Open-addressing seen-set over a chunked arena of packed states.

    The exploration's recurrence detection needs exactly one operation:
    "have I seen this state before — and if so, what did I record when I
    first saw it; if not, remember it with this record". [find_or_add]
    does that in one probe sequence.

    Layout. The table is one int per slot: the state's ordinal (its
    insertion rank) and the low 32 bits of its FNV hash packed into one
    word. Linear probing over a power-of-two table, resized at 7/10
    occupancy and re-indexed from those 32 bits, so no hash array is kept.
    Per-state data lives in insertion order, indexed by ordinal: the
    arena position and the two payload words, appended sequentially. The
    arena stores each state as a varint length prefix followed by its
    packed bytes, back to back in chunks that double from 512 bytes up to
    64 KiB and are never copied; a state longer than that gets a chunk of
    its own. A new state therefore touches one random slot and two
    sequential tails; a lookup allocates nothing; only a full-tag match
    reads the stored bytes. *)

type t

type stats = {
  states : int;
  slots : int;
  arena_bytes : int;  (** total packed-state bytes stored *)
  resident_bytes : int;
      (** bytes the seen-set holds: slot table, arena chunks (capacity,
          length prefixes and unused tails included) and per-state
          words *)
  max_probe : int;  (** longest probe sequence seen *)
}

val create : ?initial_slots:int -> unit -> t
(** [initial_slots] is rounded up to a power of two (default 16: most
    explorations recur within a few states, and growth is amortized). *)

val length : t -> int

val arena_bytes : t -> int
(** Packed-state bytes stored so far (length prefixes excluded); O(1), for
    per-state budget checks (memory budgets) without building a {!stats}
    record. *)

val find_or_add : t -> Pack.t -> p0:int -> p1:int -> bool * int * int
(** [find_or_add t pack ~p0 ~p1] looks up the packed state currently held
    by [pack]. If present, returns [(true, q0, q1)] with the payload
    recorded at insertion; otherwise inserts it with payload [(p0, p1)]
    and returns [(false, p0, p1)]. The tuple is the only allocation.
    Raises [Failure] past 2{^30} - 2 states (the ordinal field's width). *)

val stats : t -> stats
