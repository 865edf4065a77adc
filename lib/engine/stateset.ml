(* Layout (see the .mli header):
   - [table]: one word per slot, [(ordinal + 1) lsl 32 lor tag] where [tag]
     is the low 32 bits of the state's FNV hash; 0 marks an empty slot. The
     home slot is [tag land mask], the same index the full hash gives, so
     the table re-indexes from the slot words alone when it grows.
   - [meta]: three words per ordinal, in insertion order: the arena
     position ([chunk lsl 16 lor offset]) and the two payload words.
   - [chunks]: the arena. Each state is a varint length prefix followed by
     its packed bytes; a state never straddles two chunks. *)

type t = {
  mutable mask : int;  (* slots - 1, slots a power of two *)
  mutable table : int array;
  mutable meta : int array;
  mutable count : int;
  mutable chunks : Bytes.t array;
  mutable nchunks : int;
  mutable cur : Bytes.t;  (* = chunks.(nchunks - 1) *)
  mutable cur_len : int;  (* bytes used in [cur] *)
  mutable chunk_bytes : int;  (* capacity of all chunks *)
  mutable arena_len : int;  (* packed-state bytes, prefixes excluded *)
  mutable max_probe : int;
}

type stats = {
  states : int;
  slots : int;
  arena_bytes : int;
  resident_bytes : int;
  max_probe : int;
}

let tag_mask = 0xFFFF_FFFF

(* The ordinal field sits above the 32 tag bits of a 63-bit int. *)
let max_count = (1 lsl 30) - 2

(* Chunk offsets fit the 16 bits below the chunk index. Chunks start small
   (most explorations store a handful of states) and double up to this
   size; a state longer than that gets a chunk of its own, at offset 0. *)
let max_chunk = 1 lsl 16
let first_chunk = 512
let word_bytes = Sys.word_size / 8
let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

(* Most explorations (throughput checks inside the allocation flow) store
   a handful of states before recurring, so the empty table starts tiny:
   the doubling growth path amortizes to O(1) per insert either way, and a
   small start keeps short runs from paying for the long ones. *)
let create ?(initial_slots = 16) () =
  let slots = pow2 (max 16 initial_slots) 16 in
  let cur = Bytes.create first_chunk in
  {
    mask = slots - 1;
    table = Array.make slots 0;
    meta = Array.make (3 * 16) 0;
    count = 0;
    chunks = Array.make 4 cur;
    nchunks = 1;
    cur;
    cur_len = 0;
    chunk_bytes = first_chunk;
    arena_len = 0;
    max_probe = 0;
  }

let length t = t.count
let arena_bytes t = t.arena_len

let grow t =
  let old = t.table in
  let slots = Array.length old * 2 in
  let mask = slots - 1 in
  let fresh = Array.make slots 0 in
  Array.iter
    (fun s ->
      if s <> 0 then begin
        let j = ref (s land mask) in
        while fresh.(!j) <> 0 do
          j := (!j + 1) land mask
        done;
        fresh.(!j) <- s
      end)
    old;
  t.table <- fresh;
  t.mask <- mask

let rec varint_size n = if n < 0x80 then 1 else 1 + varint_size (n lsr 7)

let new_chunk t need =
  let size = max need (min max_chunk (2 * Bytes.length t.cur)) in
  let c = Bytes.create size in
  if t.nchunks = Array.length t.chunks then begin
    let a = Array.make (2 * t.nchunks) c in
    Array.blit t.chunks 0 a 0 t.nchunks;
    t.chunks <- a
  end;
  t.chunks.(t.nchunks) <- c;
  t.nchunks <- t.nchunks + 1;
  t.cur <- c;
  t.cur_len <- 0;
  t.chunk_bytes <- t.chunk_bytes + size

(* Appends [len] bytes of [src] with their length prefix; returns the
   record's arena position. *)
let arena_append t src len =
  let need = varint_size len + len in
  if t.cur_len + need > Bytes.length t.cur then new_chunk t need;
  let c = t.cur and off = t.cur_len in
  let o = ref off and v = ref len in
  while !v >= 0x80 do
    Bytes.unsafe_set c !o (Char.unsafe_chr (!v land 0x7f lor 0x80));
    incr o;
    v := !v lsr 7
  done;
  Bytes.unsafe_set c !o (Char.unsafe_chr !v);
  Bytes.blit src 0 c (!o + 1) len;
  t.cur_len <- off + need;
  t.arena_len <- t.arena_len + len;
  ((t.nchunks - 1) lsl 16) lor off

let rec stored_len c off shift acc =
  let b = Char.code (Bytes.unsafe_get c off) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc else stored_len c (off + 1) (shift + 7) acc

(* Whether the state stored under ordinal [o] is the [len] bytes of [src]. *)
let equal_at t o src len =
  let pos = t.meta.(3 * o) in
  let c = t.chunks.(pos lsr 16) and off = pos land 0xFFFF in
  stored_len c off 0 0 = len
  &&
  let base = off + varint_size len in
  let rec go i =
    i >= len
    || Bytes.unsafe_get c (base + i) = Bytes.unsafe_get src i && go (i + 1)
  in
  go 0

let push_meta t pos p0 p1 =
  let k = 3 * t.count in
  if k = Array.length t.meta then begin
    let a = Array.make (2 * k) 0 in
    Array.blit t.meta 0 a 0 k;
    t.meta <- a
  end;
  t.meta.(k) <- pos;
  t.meta.(k + 1) <- p0;
  t.meta.(k + 2) <- p1

let find_or_add t pack ~p0 ~p1 =
  let tag = Pack.hash pack land tag_mask in
  let len = Pack.len pack in
  let src = Pack.unsafe_bytes pack in
  let rec go i probe =
    let s = t.table.(i) in
    if s = 0 then begin
      (* Empty slot: the state is new. *)
      let ord = t.count in
      if ord >= max_count then failwith "Stateset: too many states";
      push_meta t (arena_append t src len) p0 p1;
      t.table.(i) <- ((ord + 1) lsl 32) lor tag;
      t.count <- ord + 1;
      if t.max_probe < probe then t.max_probe <- probe;
      if t.count * 10 > (t.mask + 1) * 7 then grow t;
      (false, p0, p1)
    end
    else if s land tag_mask = tag && equal_at t ((s lsr 32) - 1) src len
    then begin
      if t.max_probe < probe then t.max_probe <- probe;
      let k = 3 * ((s lsr 32) - 1) in
      (true, t.meta.(k + 1), t.meta.(k + 2))
    end
    else go ((i + 1) land t.mask) (probe + 1)
  in
  go (tag land t.mask) 1

let stats t =
  {
    states = t.count;
    slots = t.mask + 1;
    arena_bytes = t.arena_len;
    resident_bytes =
      word_bytes
      * (Array.length t.table + Array.length t.meta + Array.length t.chunks)
      + t.chunk_bytes;
    max_probe = t.max_probe;
  }
