open Ops

(* [keys.(0 .. len - 1)] holds the appended keys.  [ascending] stays
   true while every append was larger than the one before it, so the
   in-order builders never sort; [normalise] sorts and dedupes the
   buffer in place and makes it ascending again. *)
type t = {
  n : int;
  mutable keys : int array;
  mutable len : int;
  mutable ascending : bool;
}

let create ~n ?(size_hint = 64) () =
  if n < 0 then invalid_arg "Edge_table.create: negative n";
  { n; keys = Array.make (max 1 size_hint) 0; len = 0; ascending = true }

let n t = t.n

let key ~n u v =
  if u = v then invalid_arg "Edge_table.key: self-loop";
  let u, v = if u < v then (u, v) else (v, u) in
  if u < 0 || v >= n then
    invalid_arg
      (Printf.sprintf "Edge_table.key: endpoint out of range (%d,%d) n=%d" u v n);
  (u * n) + v

(* LSD radix sort in base n: a stable counting sort on the low digit
   (the larger endpoint), then one on the high digit (the smaller). *)
let sort_keys ~n a =
  let len = Array.length a in
  if len > 1 then begin
    let tmp = Array.make len 0 in
    let count = Array.make (n + 1) 0 in
    let pass src dst digit =
      Array.fill count 0 (n + 1) 0;
      Array.iter (fun k -> count.(digit k + 1) <- count.(digit k + 1) + 1) src;
      for d = 1 to n do
        count.(d) <- count.(d) + count.(d - 1)
      done;
      Array.iter
        (fun k ->
          let d = digit k in
          dst.(count.(d)) <- k;
          count.(d) <- count.(d) + 1)
        src
    in
    pass a tmp (fun k -> k mod n);
    pass tmp a (fun k -> k / n)
  end

let normalise t =
  if not t.ascending then begin
    let a = Array.sub t.keys 0 t.len in
    sort_keys ~n:t.n a;
    let m = ref 0 in
    for i = 0 to t.len - 1 do
      if !m = 0 || a.(!m - 1) <> a.(i) then begin
        a.(!m) <- a.(i);
        incr m
      end
    done;
    t.keys <- a;
    t.len <- !m;
    t.ascending <- true
  end

let cardinal t =
  normalise t;
  t.len

let add_pair t u v =
  let k = key ~n:t.n u v in
  let last = if t.len = 0 then -1 else t.keys.(t.len - 1) in
  if k <> last then begin
    if k < last then t.ascending <- false;
    if t.len = Array.length t.keys then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.keys 0 bigger 0 t.len;
      t.keys <- bigger
    end;
    t.keys.(t.len) <- k;
    t.len <- t.len + 1
  end

let sorted_keys t =
  normalise t;
  Array.sub t.keys 0 t.len

let diff_keys a b =
  let out = Array.make (Array.length a) 0 in
  let j = ref 0 and m = ref 0 in
  Array.iter
    (fun key ->
      while !j < Array.length b && b.(!j) < key do
        incr j
      done;
      if not (!j < Array.length b && b.(!j) = key) then begin
        out.(!m) <- key;
        incr m
      end)
    a;
  Array.sub out 0 !m

let merge_keys a la b lb =
  let out = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and m = ref 0 in
  while !i < la || !j < lb do
    if !j >= lb || (!i < la && a.(!i) < b.(!j)) then begin
      out.(!m) <- a.(!i);
      incr i
    end
    else begin
      if !i < la && a.(!i) = b.(!j) then incr i;
      out.(!m) <- b.(!j);
      incr j
    end;
    incr m
  done;
  if !m = la + lb then out else Array.sub out 0 !m
