open Ops

type t = Random.State.t

let make ~seed = Random.State.make [| seed; 0x6f5d; seed lxor 0x2c1b7a |]

let split t =
  let a = Random.State.bits t and b = Random.State.bits t in
  Random.State.make [| a; b; a lxor (b lsl 7) |]

let int t bound = Random.State.int t bound
let float t bound = Random.State.float t bound
let bool t = Random.State.bool t

(* [Random.State.float t 1. < p] without the float.  The stdlib's
   [rawfloat] is [b * 2^-53] for the 53 high bits [b] of one [bits64]
   draw, redrawn while [b] is zero.  For p in (0, 1) both sides of
   [b * 2^-53 < p] scale exactly by 2^53, so the test is
   [b < ceil (p * 2^53)] on integers.  The ends of the range draw
   nothing, encoded as the thresholds 0 (never) and 2^53 (always); a
   nan p draws and never holds, which threshold 1 gives ([b >= 1]). *)
let always = 1 lsl 53

let threshold p =
  if p >= 1. then always
  else if p > 0. then int_of_float (Float.ceil (p *. 0x1p53))
  else if p <= 0. then 0
  else 1

let rec draw53 t =
  let b = Int64.to_int (Int64.shift_right_logical (Random.State.bits64 t) 11) in
  if b = 0 then draw53 t else b

let below t th =
  if th <= 0 then false else if th >= always then true else draw53 t < th

let bernoulli t p = below t (threshold p)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t n =
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  arr

let sample_without_replacement t m n =
  if m < 0 || m > n then
    invalid_arg "Rng.sample_without_replacement: need 0 <= m <= n";
  (* Floyd's algorithm: O(m) expected draws, no O(n) allocation. *)
  let chosen = Hashtbl.create (2 * m) in
  for j = n - m to n - 1 do
    let r = int t (j + 1) in
    if Hashtbl.mem chosen r then Hashtbl.replace chosen j ()
    else Hashtbl.replace chosen r ()
  done;
  Hashtbl.fold (fun v () acc -> v :: acc) chosen []
  |> List.sort Int.compare
