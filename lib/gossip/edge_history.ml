open Dynet.Ops

type t = {
  row : Dynet.Node_id.t array;  (* sorted neighbour row at the last refresh *)
  born : int array;  (* round the presence run of row.(i) started *)
  contrib : Bytes.t;  (* byte i nonzero: a new token crossed row.(i) *)
}

type category = New | Idle | Contributive

let category_equal a b =
  match (a, b) with
  | New, New | Idle, Idle | Contributive, Contributive -> true
  | (New | Idle | Contributive), _ -> false

let empty =
  (* dynlint: domain-safe — zero-length arrays and bytes have no cells
     to write, and nothing mutates a history after it is built *)
  { row = [||]; born = [||]; contrib = Bytes.empty }

(* Loops rather than local recursive functions here and in [index]:
   a closure over [t] would be allocated on every call, and both run
   once or more per node-round. *)
let same_row t neighbors =
  let d = Array.length neighbors in
  Array.length t.row = d
  &&
  let i = ref 0 in
  while !i < d && t.row.(!i) = neighbors.(!i) do
    incr i
  done;
  !i = d

let refresh t ~round ~neighbors =
  let d = Array.length neighbors and old = t.row in
  let od = Array.length old in
  let born = Array.make d round and contrib = Bytes.make d '\000' in
  (* Both rows ascend, so one merge walk pairs every survivor with its
     old slot; arrivals keep [round] and a clear flag. *)
  let j = ref 0 in
  for i = 0 to d - 1 do
    let w = neighbors.(i) in
    while !j < od && old.(!j) < w do
      incr j
    done;
    if !j < od && old.(!j) = w then begin
      born.(i) <- t.born.(!j);
      Bytes.set_uint8 contrib i (Bytes.get_uint8 t.contrib !j)
    end
  done;
  { row = neighbors; born; contrib }

let index t w =
  let lo = ref 0 and hi = ref (Array.length t.row) and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let x = t.row.(mid) in
    if x = w then found := mid else if x < w then lo := mid + 1 else hi := mid
  done;
  !found

let mem t w = index t w >= 0

let mark_contributed t w =
  let i = index t w in
  if i < 0 || Bytes.get_uint8 t.contrib i <> 0 then t
  else begin
    let contrib = Bytes.copy t.contrib in
    Bytes.set_uint8 contrib i 1;
    { t with contrib }
  end

let categorize_at t ~round i =
  if t.born.(i) >= round - 1 then New
  else if Bytes.get_uint8 t.contrib i <> 0 then Contributive
  else Idle
