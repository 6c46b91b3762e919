open Ops

type t = Random.State.t

let make ~seed = Random.State.make [| seed; 0x6f5d; seed lxor 0x2c1b7a |]

let split t =
  let a = Random.State.bits t and b = Random.State.bits t in
  Random.State.make [| a; b; a lxor (b lsl 7) |]

let int t bound = Random.State.int t bound
let float t bound = Random.State.float t bound
let bool t = Random.State.bool t

(* [Random.State.float t 1. < p], computed inline: the stdlib's
   [rawfloat] (53 high bits of one [bits64] draw, redrawn when they are
   all zero) times 1., without the boxed float that crossing the module
   boundary costs on every draw. *)
let rec unit_float_below t p =
  let bits = Int64.shift_right_logical (Random.State.bits64 t) 11 in
  if Int64.equal bits 0L then unit_float_below t p
  else Int64.to_float bits *. 0x1.p-53 < p

let bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else unit_float_below t p

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
