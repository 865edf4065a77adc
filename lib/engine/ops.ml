module Sdfg = Sdf.Sdfg

type t = {
  in_ch : int array array;
  in_q : int array array;  (* consumption rate, aligned with in_ch *)
  out_ch : int array array;
  out_p : int array array;  (* production rate, aligned with out_ch *)
  succ : int array array;  (* sorted unique consumers of each actor's output *)
}

let of_graph g =
  let n = Sdfg.num_actors g in
  let in_ch = Array.init n (Sdfg.in_channels g) in
  let out_ch = Array.init n (Sdfg.out_channels g) in
  let succ =
    Array.map
      (fun chs ->
        Array.of_list
          (List.sort_uniq compare
             (Array.to_list
                (Array.map (fun ci -> (Sdfg.channel g ci).Sdfg.dst) chs))))
      out_ch
  in
  {
    in_ch;
    in_q =
      Array.map (Array.map (fun ci -> (Sdfg.channel g ci).Sdfg.cons)) in_ch;
    out_ch;
    out_p =
      Array.map (Array.map (fun ci -> (Sdfg.channel g ci).Sdfg.prod)) out_ch;
    succ;
  }

let successors t a = t.succ.(a)

let enabled t tokens a =
  let ch = t.in_ch.(a) and q = t.in_q.(a) in
  let rec go i =
    i >= Array.length ch
    || tokens.(Array.unsafe_get ch i) >= Array.unsafe_get q i && go (i + 1)
  in
  go 0

let consume t tokens a =
  let ch = t.in_ch.(a) and q = t.in_q.(a) in
  for i = 0 to Array.length ch - 1 do
    let ci = Array.unsafe_get ch i in
    tokens.(ci) <- tokens.(ci) - Array.unsafe_get q i
  done

let produce t tokens a =
  let ch = t.out_ch.(a) and p = t.out_p.(a) in
  for i = 0 to Array.length ch - 1 do
    let ci = Array.unsafe_get ch i in
    tokens.(ci) <- tokens.(ci) + Array.unsafe_get p i
  done

let rec insert_sorted x = function
  | [] -> [ x ]
  | y :: _ as l when x <= y -> x :: l
  | y :: rest -> y :: insert_sorted x rest
