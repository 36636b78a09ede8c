(* Print one stored payload of each kind — runner metrics, serving
   outcome, its SLO line, tier outcome — from small real jobs.  The dune
   rule beside this file diffs the output against payloads.expected. *)

module E = Hcsgc_experiments
module Codec = Hcsgc_store.Codec

let section name codec v =
  let payload = Codec.to_string codec v in
  (match Codec.of_string codec payload with
  | Some v' when Codec.to_string codec v' = payload -> ()
  | _ -> failwith (name ^ ": payload does not decode to itself"));
  Printf.printf "== %s ==\n%s" name payload;
  if not (String.ends_with ~suffix:"\n" payload) then print_newline ()

let () =
  let job =
    {
      E.Runner.exp = E.Fig_synthetic.experiment ~scale:50 ();
      config_id = 18;
      run = 0;
    }
  in
  section "runner metrics" E.Runner.metrics_codec (E.Runner.execute job);
  let serve =
    E.Fig_serve.sweep ~config_ids:[ 18 ] ~runs:1
      ~heap:(E.Fig_serve.scaled_heap ~scale:64)
      ~params:(E.Fig_serve.scaled_params ~scale:64)
      ()
  in
  let o = (snd (List.hd serve)).(0) in
  section "serve outcome" E.Fig_serve.codec o;
  section "slo line" Hcsgc_serve.Slo.codec o.E.Fig_serve.report;
  let tier = E.Fig_tier.sweep ~capacities:[ 4 ] ~runs:1 ~scale:64 () in
  let t = (snd (List.hd (snd (List.hd tier)))).(0) in
  section "tier outcome" E.Fig_tier.codec t
