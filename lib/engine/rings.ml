type t = {
  buf : int array array;  (* circular, per actor; grown by doubling *)
  head : int array;
  len : int array;
  mutable min_cache : int;
  mutable min_valid : bool;
}

let create n =
  {
    buf = Array.init n (fun _ -> Array.make 4 0);
    head = Array.make n 0;
    len = Array.make n 0;
    min_cache = max_int;
    min_valid = true;
  }

let length t a = t.len.(a)

let push t a c =
  let b = t.buf.(a) in
  let cap = Array.length b in
  if t.len.(a) = cap then begin
    (* Unroll the ring into a doubled buffer, oldest first. *)
    let nb = Array.make (cap * 2) 0 in
    for i = 0 to cap - 1 do
      nb.(i) <- b.((t.head.(a) + i) mod cap)
    done;
    t.buf.(a) <- nb;
    t.head.(a) <- 0
  end;
  let b = t.buf.(a) in
  b.((t.head.(a) + t.len.(a)) mod Array.length b) <- c;
  t.len.(a) <- t.len.(a) + 1;
  if t.min_valid && c < t.min_cache then t.min_cache <- c

let min_head t =
  if t.min_valid then t.min_cache
  else begin
    let m = ref max_int in
    for a = 0 to Array.length t.len - 1 do
      if t.len.(a) > 0 && t.buf.(a).(t.head.(a)) < !m then
        m := t.buf.(a).(t.head.(a))
    done;
    t.min_cache <- !m;
    t.min_valid <- true;
    !m
  end

let pop_due t ~now f =
  for a = 0 to Array.length t.len - 1 do
    let b = t.buf.(a) in
    let cap = Array.length b in
    while t.len.(a) > 0 && b.(t.head.(a)) = now do
      t.head.(a) <- (t.head.(a) + 1) mod cap;
      t.len.(a) <- t.len.(a) - 1;
      f a
    done
  done;
  t.min_valid <- false

let pop_front t a =
  let b = t.buf.(a) in
  let c = b.(t.head.(a)) in
  t.head.(a) <- (t.head.(a) + 1) mod Array.length b;
  t.len.(a) <- t.len.(a) - 1;
  t.min_valid <- false;
  c

let iter t a f =
  let b = t.buf.(a) in
  let cap = Array.length b in
  for i = 0 to t.len.(a) - 1 do
    f b.((t.head.(a) + i) mod cap)
  done
