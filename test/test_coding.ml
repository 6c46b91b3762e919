(* Tests for the GF(2) substrate and the network-coding gossip used by
   the E12 token-forwarding-barrier comparison. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* {2 Gf2.Vec} *)

let test_vec_unit_and_get () =
  let v = Gossip.Gf2.Vec.unit ~dim:100 63 in
  check Alcotest.bool "bit set" true (Gossip.Gf2.Vec.get v 63);
  check Alcotest.bool "other bit clear" false (Gossip.Gf2.Vec.get v 62);
  check Alcotest.bool "not zero" false (Gossip.Gf2.Vec.is_zero v);
  check (Alcotest.option Alcotest.int) "lowest set" (Some 63)
    (Gossip.Gf2.Vec.lowest_set v);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Gf2.Vec.unit: index out of range") (fun () ->
      ignore (Gossip.Gf2.Vec.unit ~dim:10 10))

let test_vec_xor_involution () =
  let a = Gossip.Gf2.Vec.unit ~dim:70 3 in
  let b = Gossip.Gf2.Vec.unit ~dim:70 65 in
  let ab = Gossip.Gf2.Vec.xor a b in
  check Alcotest.bool "both bits" true
    (Gossip.Gf2.Vec.get ab 3 && Gossip.Gf2.Vec.get ab 65);
  check Alcotest.bool "xor with self is zero" true
    (Gossip.Gf2.Vec.is_zero (Gossip.Gf2.Vec.xor ab ab));
  check Alcotest.bool "xor undoes" true
    (Gossip.Gf2.Vec.equal a (Gossip.Gf2.Vec.xor ab b))

let test_vec_dimension_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Gf2.Vec.xor: dimension mismatch") (fun () ->
      ignore
        (Gossip.Gf2.Vec.xor
           (Gossip.Gf2.Vec.zero ~dim:5)
           (Gossip.Gf2.Vec.zero ~dim:6)))

let prop_vec_xor_commutative =
  QCheck.Test.make ~name:"gf2: xor commutative/associative" ~count:100
    (QCheck.triple QCheck.small_nat QCheck.small_nat QCheck.small_nat)
    (fun (x, y, z) ->
      let dim = 80 in
      let rng = Dynet.Rng.make ~seed:(x + (100 * y) + (10000 * z)) in
      let a = Gossip.Gf2.Vec.random rng ~dim in
      let b = Gossip.Gf2.Vec.random rng ~dim in
      let c = Gossip.Gf2.Vec.random rng ~dim in
      Gossip.Gf2.Vec.(
        equal (xor a b) (xor b a) && equal (xor (xor a b) c) (xor a (xor b c))))

let prop_vec_random_tail_masked =
  QCheck.Test.make ~name:"gf2: random vectors stay in dimension" ~count:60
    (QCheck.pair (QCheck.int_range 1 130) QCheck.small_nat)
    (fun (dim, seed) ->
      let v = Gossip.Gf2.Vec.random (Dynet.Rng.make ~seed) ~dim in
      (* All coordinate reads in range succeed and xor-with-self is 0;
         canonical equality relies on masked tails. *)
      Gossip.Gf2.Vec.is_zero (Gossip.Gf2.Vec.xor v v)
      && (match Gossip.Gf2.Vec.lowest_set v with
         | None -> true
         | Some i -> i < dim))

(* {2 Gf2.Basis} *)

let test_basis_rank_and_span () =
  let b = Gossip.Gf2.Basis.create ~dim:4 in
  let u i = Gossip.Gf2.Vec.unit ~dim:4 i in
  check Alcotest.bool "insert e0" true
    (Gossip.Gf2.Basis.insert b (u 0) ~payload:10);
  check Alcotest.bool "insert e1" true
    (Gossip.Gf2.Basis.insert b (u 1) ~payload:20);
  check Alcotest.bool "e0+e1 dependent" false
    (Gossip.Gf2.Basis.insert b (Gossip.Gf2.Vec.xor (u 0) (u 1)) ~payload:30);
  check Alcotest.int "rank 2" 2 (Gossip.Gf2.Basis.rank b);
  check Alcotest.bool "not full" false (Gossip.Gf2.Basis.full b);
  ignore (Gossip.Gf2.Basis.insert b (u 2) ~payload:40);
  ignore (Gossip.Gf2.Basis.insert b (u 3) ~payload:50);
  check Alcotest.bool "full" true (Gossip.Gf2.Basis.full b)

let test_basis_decode_from_mixed_rows () =
  (* Insert combinations, not units, and verify decode recovers the
     per-coordinate payloads by consistent xor. *)
  let dim = 3 in
  let b = Gossip.Gf2.Basis.create ~dim in
  let u i = Gossip.Gf2.Vec.unit ~dim i in
  let p = [| 111; 222; 333 |] in
  let v01 = Gossip.Gf2.Vec.xor (u 0) (u 1) in
  let v12 = Gossip.Gf2.Vec.xor (u 1) (u 2) in
  let v012 = Gossip.Gf2.Vec.xor v01 (u 2) in
  check Alcotest.bool "v01" true
    (Gossip.Gf2.Basis.insert b v01 ~payload:(p.(0) lxor p.(1)));
  check Alcotest.bool "v12" true
    (Gossip.Gf2.Basis.insert b v12 ~payload:(p.(1) lxor p.(2)));
  check Alcotest.bool "v012" true
    (Gossip.Gf2.Basis.insert b v012 ~payload:(p.(0) lxor p.(1) lxor p.(2)));
  check Alcotest.bool "full" true (Gossip.Gf2.Basis.full b);
  let decoded = Gossip.Gf2.Basis.decode b in
  Array.iteri
    (fun i expected ->
      check (Alcotest.option Alcotest.int)
        (Printf.sprintf "payload %d" i)
        (Some expected) decoded.(i))
    p

let prop_basis_rank_bounded =
  QCheck.Test.make ~name:"gf2: rank never exceeds dim or insert count"
    ~count:60
    (QCheck.pair (QCheck.int_range 1 40) QCheck.small_nat)
    (fun (dim, seed) ->
      let rng = Dynet.Rng.make ~seed in
      let b = Gossip.Gf2.Basis.create ~dim in
      let inserted = ref 0 in
      for _ = 1 to 2 * dim do
        let v = Gossip.Gf2.Vec.random rng ~dim in
        if Gossip.Gf2.Basis.insert b v ~payload:(Dynet.Rng.int rng 1000) then
          incr inserted
      done;
      Gossip.Gf2.Basis.rank b = !inserted && !inserted <= dim)

let prop_basis_random_vectors_fill =
  QCheck.Test.make ~name:"gf2: ~2 dim random vectors reach full rank whp"
    ~count:30 (QCheck.int_range 2 40) (fun dim ->
      let rng = Dynet.Rng.make ~seed:(dim * 17) in
      let b = Gossip.Gf2.Basis.create ~dim in
      for _ = 1 to (2 * dim) + 16 do
        ignore
          (Gossip.Gf2.Basis.insert b
             (Gossip.Gf2.Vec.random rng ~dim)
             ~payload:0)
      done;
      Gossip.Gf2.Basis.full b)

(* {2 Coded broadcast} *)

let test_coded_completes_and_decodes () =
  let n = 16 in
  let instance = Gossip.Instance.one_per_node ~n in
  let schedule = Adversary.Oblivious.fresh_random ~seed:4 ~n ~p:0.3 in
  let result, states =
    Gossip.Runners.coded_broadcast ~instance ~schedule ~seed:5 ()
  in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  check Alcotest.bool "all decoded" true
    (Gossip.Coded_bcast.all_decoded ~k:n states);
  check Alcotest.bool "full rank everywhere" true
    (Array.for_all (fun st -> Gossip.Coded_bcast.rank st = n) states)

let test_coded_much_faster_than_flooding () =
  let n = 20 in
  let instance = Gossip.Instance.one_per_node ~n in
  let flood, _ =
    Gossip.Runners.flooding ~instance
      ~schedule:(Adversary.Oblivious.fresh_random ~seed:6 ~n ~p:0.3)
      ()
  in
  let coded, _ =
    Gossip.Runners.coded_broadcast ~instance
      ~schedule:(Adversary.Oblivious.fresh_random ~seed:6 ~n ~p:0.3)
      ~seed:7 ()
  in
  check Alcotest.bool "both complete" true
    (flood.Engine.Run_result.completed && coded.Engine.Run_result.completed);
  check Alcotest.bool "coding at least 4x fewer rounds" true
    (4 * coded.Engine.Run_result.rounds <= flood.Engine.Run_result.rounds)

let test_coded_on_path () =
  (* Diameter-limited: still completes in O(n + k) rounds on a path. *)
  let n = 16 in
  let instance = Gossip.Instance.one_per_node ~n in
  let schedule = Adversary.Oblivious.static (Dynet.Graph_gen.path ~n) in
  let result, _ =
    Gossip.Runners.coded_broadcast ~instance ~schedule ~seed:8 ()
  in
  check Alcotest.bool "completed" true result.Engine.Run_result.completed;
  check Alcotest.bool "linear-ish rounds" true
    (result.Engine.Run_result.rounds <= 8 * n)

let test_payload_of_uid_distinct () =
  let seen = Hashtbl.create 64 in
  for uid = 0 to 2000 do
    let p = Gossip.Coded_bcast.payload_of_uid uid in
    Alcotest.check Alcotest.bool "fresh payload" false (Hashtbl.mem seen p);
    Hashtbl.replace seen p ()
  done

let suite =
  [
    ("gf2 vec unit/get", `Quick, test_vec_unit_and_get);
    ("gf2 vec xor involution", `Quick, test_vec_xor_involution);
    ("gf2 vec dimension mismatch", `Quick, test_vec_dimension_mismatch);
    qcheck prop_vec_xor_commutative;
    qcheck prop_vec_random_tail_masked;
    ("gf2 basis rank and span", `Quick, test_basis_rank_and_span);
    ("gf2 basis decode from mixed rows", `Quick,
     test_basis_decode_from_mixed_rows);
    qcheck prop_basis_rank_bounded;
    qcheck prop_basis_random_vectors_fill;
    ("coded gossip completes and decodes", `Quick,
     test_coded_completes_and_decodes);
    ("coded gossip beats flooding", `Quick, test_coded_much_faster_than_flooding);
    ("coded gossip on a path", `Quick, test_coded_on_path);
    ("payloads distinct", `Quick, test_payload_of_uid_distinct);
  ]
