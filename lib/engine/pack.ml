type t = { mutable buf : Bytes.t; mutable len : int }

(* FNV-1a, truncated to OCaml's native int width. The offset basis has its
   top bit dropped to stay a literal; any odd non-zero basis preserves the
   mixing properties. *)
let fnv_basis = 0x4bf29ce484222325
let fnv_prime = 0x100000001b3

let create ?(initial = 256) () =
  { buf = Bytes.create (max 16 initial); len = 0 }

let reset t = t.len <- 0

let grow t need =
  let cap = ref (Bytes.length t.buf * 2) in
  while !cap < need do
    cap := !cap * 2
  done;
  let b = Bytes.create !cap in
  Bytes.blit t.buf 0 b 0 t.len;
  t.buf <- b

let[@inline] add_byte t v =
  let v = v land 0xff in
  let len = t.len in
  if len >= Bytes.length t.buf then grow t (len + 1);
  Bytes.unsafe_set t.buf len (Char.unsafe_chr v);
  t.len <- len + 1

let add_uint t v =
  if v >= 0 && v < 0x80 then add_byte t v
  else begin
    let v = ref v in
    while not (!v >= 0 && !v < 0x80) do
      add_byte t (!v land 0x7f lor 0x80);
      v := !v lsr 7
    done;
    add_byte t !v
  end

let add_uint_array t a =
  let n = Array.length a in
  (* Room for the worst case up front (ten varint bytes per word), so the
     loop writes without a capacity check. *)
  if t.len + (10 * n) > Bytes.length t.buf then grow t (t.len + (10 * n));
  let b = t.buf in
  let len = ref t.len in
  for i = 0 to n - 1 do
    let v = ref (Array.unsafe_get a i) in
    while not (!v >= 0 && !v < 0x80) do
      Bytes.unsafe_set b !len (Char.unsafe_chr (!v land 0x7f lor 0x80));
      incr len;
      v := !v lsr 7
    done;
    Bytes.unsafe_set b !len (Char.unsafe_chr !v);
    incr len
  done;
  t.len <- !len

let add_int t v = add_uint t ((v lsl 1) lxor (v asr 62))

let add_fixed t ~width v =
  let v = ref v in
  for _ = 1 to width do
    add_byte t (!v land 0xff);
    v := !v lsr 8
  done

let width_for bound =
  let rec go w b = if b < 256 then w else go (w + 1) (b lsr 8) in
  go 1 (max 0 bound)

let len t = t.len

(* One pass over the written bytes with the running hash in a register:
   cheaper than folding each byte into a record field as it is written. *)
let hash t =
  let b = t.buf in
  let h = ref fnv_basis in
  for i = 0 to t.len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * fnv_prime
  done;
  !h land max_int

let unsafe_bytes t = t.buf
let contents t = Bytes.sub_string t.buf 0 t.len
