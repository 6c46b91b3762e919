open Dynet.Ops

module Vec = struct
  type t = { dim : int; words : int array }

  let word_bits = 62
  let words_for dim = (dim + word_bits - 1) / word_bits

  let zero ~dim = { dim; words = Array.make (max 1 (words_for dim)) 0 }

  let unit ~dim i =
    if i < 0 || i >= dim then invalid_arg "Gf2.Vec.unit: index out of range";
    let v = zero ~dim in
    v.words.(i / word_bits) <- 1 lsl (i mod word_bits);
    v

  let dim v = v.dim
  let is_zero v = Array.for_all (fun w -> w = 0) v.words

  let get v i =
    if i < 0 || i >= v.dim then invalid_arg "Gf2.Vec.get: index out of range";
    v.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

  let xor a b =
    if a.dim <> b.dim then invalid_arg "Gf2.Vec.xor: dimension mismatch";
    { dim = a.dim; words = Array.mapi (fun i w -> w lxor b.words.(i)) a.words }

  let lowest_set v =
    let rec scan_word i =
      if i >= Array.length v.words then None
      else if v.words.(i) = 0 then scan_word (i + 1)
      else begin
        let w = v.words.(i) in
        let rec scan_bit b =
          if w land (1 lsl b) <> 0 then Some ((i * word_bits) + b)
          else scan_bit (b + 1)
        in
        scan_bit 0
      end
    in
    scan_word 0

  let random rng ~dim =
    let v = zero ~dim in
    (* Random.State.int caps at 2^30; assemble 62-bit words from three
       draws. *)
    let chunk () = Dynet.Rng.int rng (1 lsl 21) in
    for i = 0 to Array.length v.words - 1 do
      v.words.(i) <- (chunk () lsl 42) lor (chunk () lsl 21) lor chunk ()
    done;
    (* Mask the tail so equality is canonical. *)
    let tail = dim mod word_bits in
    if tail > 0 then begin
      let last = Array.length v.words - 1 in
      v.words.(last) <- v.words.(last) land ((1 lsl tail) - 1)
    end;
    v

  let equal a b = a.dim = b.dim && int_array_equal a.words b.words

  let pp ppf v =
    for i = 0 to v.dim - 1 do
      Format.pp_print_char ppf (if get v i then '1' else '0')
    done
end

module Basis = struct
  (* rows.(p) = Some (vector with pivot p, payload) *)
  type t = { dim : int; rows : (Vec.t * int) option array; mutable rank : int }

  let create ~dim = { dim; rows = Array.make (max dim 1) None; rank = 0 }
  let rank t = t.rank

  (* Reduce a (vector, payload) pair against the basis rows. *)
  let reduce t v payload =
    let v = ref v and payload = ref payload in
    let continue_ = ref true in
    while !continue_ do
      match Vec.lowest_set !v with
      | None -> continue_ := false
      | Some p -> (
          match t.rows.(p) with
          | None -> continue_ := false
          | Some (row, row_payload) ->
              v := Vec.xor !v row;
              payload := !payload lxor row_payload)
    done;
    (!v, !payload)

  let insert t v ~payload =
    if Vec.dim v <> t.dim then invalid_arg "Gf2.Basis.insert: dimension mismatch";
    let v, payload = reduce t v payload in
    match Vec.lowest_set v with
    | None -> false
    | Some p ->
        t.rows.(p) <- Some (v, payload);
        t.rank <- t.rank + 1;
        true

  let full t = t.rank = t.dim

  let vectors t =
    Array.to_list t.rows |> List.filter_map Fun.id

  let decode t =
    (* Back-substitute top-down: eliminate every non-pivot coordinate
       from each row, leaving unit vectors. *)
    let result = Array.make t.dim None in
    let cleaned = Array.copy t.rows in
    for p = t.dim - 1 downto 0 do
      match cleaned.(p) with
      | None -> ()
      | Some (row, payload) ->
          let row = ref row and payload = ref payload in
          for q = p + 1 to t.dim - 1 do
            if Vec.get !row q then
              match cleaned.(q) with
              | Some (qrow, qpayload) ->
                  row := Vec.xor !row qrow;
                  payload := !payload lxor qpayload
              | None -> ()
          done;
          cleaned.(p) <- Some (!row, !payload);
          if Vec.equal !row (Vec.unit ~dim:t.dim p) then
            result.(p) <- Some !payload
    done;
    result
end
