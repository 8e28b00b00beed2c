module Session = Grt_runtime.Session
module Job_desc = Grt_gpu.Job_desc
module Shader = Grt_gpu.Shader

module Names = Hashtbl.Make (String)

(* Buffer name -> its region; a name registered twice resolves to the
   later region. *)
type t = { plan : Network.plan; session : Session.t; regions : Session.region Names.t }

let plan t = t.plan
let session t = t.session
let region t name = Names.find t.regions name

let job_fan_in (j : Network.job_spec) =
  let p = j.Network.mat in
  match j.Network.op with
  | Shader.Conv2d -> p.Job_desc.in_c * p.Job_desc.kh * p.Job_desc.kw
  | Shader.Depthwise -> p.Job_desc.kh * p.Job_desc.kw
  | Shader.Fc -> p.Job_desc.in_c * p.Job_desc.in_h * p.Job_desc.in_w
  | _ -> 1

let weight_values plan ~seed =
  let rng = Grt_util.Rng.create ~seed in
  List.filter_map
    (fun (b : Network.buffer_spec) ->
      if b.Network.busage <> Session.Weights then None
      else begin
        let n = b.Network.actual_bytes / 4 in
        let is_bias = String.length b.Network.bname > 0 && b.Network.bname.[0] = 'b' in
        let fan_in =
          if is_bias then 1
          else
            (* Find the consuming job to derive fan-in for scaling. *)
            match
              List.find_opt (fun j -> j.Network.input2 = Some b.Network.bname) plan.Network.jobs
            with
            | Some j -> max 1 (job_fan_in j)
            | None -> 1
        in
        let a = if is_bias then 0.01 else sqrt (3.0 /. float_of_int fan_in) in
        let values =
          Array.init n (fun _ -> (Grt_util.Rng.float rng (2.0 *. a)) -. a)
        in
        Some (b.Network.bname, values)
      end)
    plan.Network.buffers

let input_values plan ~seed =
  let rng = Grt_util.Rng.create ~seed:(Int64.add seed 0x1234L) in
  let n = Network.elems plan.Network.mat_input in
  Array.init n (fun _ -> Grt_util.Rng.float rng 1.0)

let setup ~session ~plan ~seed ~load_weights =
  let t = { plan; session; regions = Names.create (List.length plan.Network.buffers) } in
  List.iter
    (fun (b : Network.buffer_spec) ->
      let r =
        Session.alloc session ~name:b.Network.bname ~usage:b.Network.busage
          ~model_bytes:b.Network.model_bytes ~actual_bytes:b.Network.actual_bytes
      in
      Names.replace t.regions b.Network.bname r)
    plan.Network.buffers;
  if load_weights then
    List.iter
      (fun (name, values) -> Session.write_floats session (region t name) values)
      (weight_values plan ~seed);
  t

let set_input t values = Session.write_floats t.session (region t t.plan.Network.input_buffer) values

let get_output t =
  Session.read_floats t.session
    (region t t.plan.Network.output_buffer)
    (Network.elems t.plan.Network.mat_output)

let desc_of_job t (j : Network.job_spec) =
  let va name = (region t name).Session.va in
  {
    Job_desc.op = j.Network.op;
    shader_va = 0L (* filled from the JIT cache by build_chain *);
    input_va = va j.Network.input;
    input2_va = (match j.Network.input2 with Some n -> va n | None -> 0L);
    bias_va = (match j.Network.bias with Some n -> va n | None -> 0L);
    output_va = va j.Network.output;
    params = j.Network.mat;
    next_va = 0L;
  }

let submit_job t j =
  let chain_va = Session.build_chain t.session [ desc_of_job t j ] in
  Session.submit t.session ~chain_va

let run ?between_layers t =
  let last_layer = ref (-1) in
  List.iter
    (fun (j : Network.job_spec) ->
      (match between_layers with
      | Some f when !last_layer >= 0 && j.Network.layer <> !last_layer ->
        f ~prev:!last_layer ~next:j.Network.layer
      | _ -> ());
      last_layer := j.Network.layer;
      submit_job t j)
    t.plan.Network.jobs

let run_one t i =
  match List.nth_opt t.plan.Network.jobs i with
  | Some j -> submit_job t j
  | None -> invalid_arg "Runner.run_one: job index out of range"
