type t = {
  buf : int array array;  (* circular, per slot; grown by doubling *)
  head : int array;
  len : int array;
}

let create n =
  {
    buf = Array.init n (fun _ -> Array.make 4 0);
    head = Array.make n 0;
    len = Array.make n 0;
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
  t.len.(a) <- t.len.(a) + 1

let pop_front t a =
  let b = t.buf.(a) in
  let c = b.(t.head.(a)) in
  t.head.(a) <- (t.head.(a) + 1) mod Array.length b;
  t.len.(a) <- t.len.(a) - 1;
  c

let iter t a f =
  let b = t.buf.(a) in
  let cap = Array.length b in
  for i = 0 to t.len.(a) - 1 do
    f b.((t.head.(a) + i) mod cap)
  done
