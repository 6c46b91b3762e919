type rule =
  | Stateless of (int -> Dynet.Graph.t)
  | Markov of (unit -> Dynet.Graph.t) * (int -> Dynet.Graph.t -> Dynet.Graph.t)

(* A forward cursor: [round] is the last round produced (0 before the
   first read) and [graph] its graph.  Nothing older is kept, so a
   run's memory is flat in its round count. *)
type t = {
  n : int;
  rule : rule;
  mutable round : int;
  mutable graph : Dynet.Graph.t;
}

let n t = t.n

let get t r =
  if r < 1 then invalid_arg "Schedule.get: rounds are 1-based";
  if r <> t.round then begin
    match t.rule with
    | Stateless f ->
        t.graph <- f r;
        t.round <- r
    | Markov (init, step) ->
        (* Behind the cursor: replay the sequence from [init]. *)
        if r < t.round then t.round <- 0;
        while t.round < r do
          let next = t.round + 1 in
          t.graph <- (if next = 1 then init () else step next t.graph);
          t.round <- next
        done
  end;
  t.graph

let make ~n rule = { n; rule; round = 0; graph = Dynet.Graph.empty ~n }
let of_fun ~n f = make ~n (Stateless f)
let iterate ~n ~init step = make ~n (Markov (init, step))

let stabilized ~sigma base =
  (* The stability transform is sequential; driving it from a Markov
     rule feeds it the rounds in order.  [init] starts a fresh holder,
     so a replay from round 1 repeats the same sequence. *)
  let holder = ref (Dynet.Stability.create ~sigma ~n:base.n) in
  iterate ~n:base.n
    ~init:(fun () ->
      holder := Dynet.Stability.create ~sigma ~n:base.n;
      Dynet.Stability.step !holder (get base 1))
    (fun r _prev -> Dynet.Stability.step !holder (get base r))

let overlay a b =
  if a.n <> b.n then invalid_arg "Schedule.overlay: node counts differ";
  of_fun ~n:a.n (fun r -> Dynet.Graph.union (get a r) (get b r))

let prefix t x =
  Dynet.Dyn_seq.of_graphs (List.init x (fun i -> get t (i + 1)))

let unicast t ~round ~prev:_ ~states:_ ~traffic:_ = get t round
let broadcast t ~round ~prev:_ ~states:_ ~intents:_ = get t round
