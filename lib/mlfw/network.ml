module Shader = Grt_gpu.Shader
module Job_desc = Grt_gpu.Job_desc
module Kernels = Grt_gpu.Kernels
module Session = Grt_runtime.Session

type shape = { c : int; h : int; w : int }

let elems s = s.c * s.h * s.w
let shape_bytes s = 4 * elems s

type spec =
  | Stage_input
  | Conv of { oc : int; k : int; s : int; p : int; relu : bool; parts : int }
  | Depthwise of { k : int; s : int; p : int; relu : bool }
  | Maxpool of { k : int; s : int }
  | Avgpool_global
  | Fc of { out : int; relu : bool; parts : int }
  | Relu_layer
  | Tanh_layer
  | Sigmoid_layer
  | Add of { other : int }
  | Mul of { other : int }
  | Concat of { other : int }
  | Softmax

type node = { spec : spec; from : int }

type t = {
  name : string;
  model_input : shape;
  mat_input : shape;
  nodes : node array;
}

module Builder = struct
  type b = { mutable rev_nodes : node list; mutable count : int }

  let create () = { rev_nodes = []; count = 0 }

  let add b ?from spec =
    let from = match from with Some f -> f | None -> b.count - 1 in
    if from < -1 || from >= b.count then invalid_arg "Builder.add: dangling from";
    b.rev_nodes <- { spec; from } :: b.rev_nodes;
    b.count <- b.count + 1;
    b.count - 1

  let nodes b = Array.of_list (List.rev b.rev_nodes)
end

let jobs_of_spec = function
  | Stage_input | Depthwise _ | Maxpool _ | Avgpool_global | Relu_layer | Tanh_layer
  | Sigmoid_layer | Add _ | Mul _ | Concat _ | Softmax ->
    1
  | Conv { parts; _ } | Fc { parts; _ } -> parts

let job_count t = Array.fold_left (fun acc n -> acc + jobs_of_spec n.spec) 0 t.nodes

(* ---- shape propagation ---- *)

let conv_out ~in_s ~oc ~k ~s ~p =
  let o d = ((d + (2 * p) - k) / s) + 1 in
  { c = oc; h = o in_s.h; w = o in_s.w }

let fail net fmt = Printf.ksprintf (fun m -> invalid_arg (net ^ ": " ^ m)) fmt

let model_out_shape net_name spec ~in_s ~other_s =
  match spec with
  | Stage_input | Relu_layer | Tanh_layer | Sigmoid_layer | Softmax -> in_s
  | Conv { oc; k; s; p; _ } ->
    let out = conv_out ~in_s ~oc ~k ~s ~p in
    if out.h <= 0 || out.w <= 0 then fail net_name "conv collapses to empty output";
    out
  | Depthwise { k; s; p; _ } ->
    let out = conv_out ~in_s ~oc:in_s.c ~k ~s ~p in
    if out.h <= 0 then fail net_name "depthwise collapses";
    out
  | Maxpool { k; s } ->
    let out = conv_out ~in_s ~oc:in_s.c ~k ~s ~p:0 in
    if out.h <= 0 then fail net_name "maxpool collapses";
    out
  | Avgpool_global -> { c = in_s.c; h = 1; w = 1 }
  | Fc { out; _ } -> { c = out; h = 1; w = 1 }
  | Add _ | Mul _ -> (
    match other_s with
    | Some o when o = in_s -> in_s
    | Some _ -> fail net_name "elementwise combine over mismatched shapes"
    | None -> assert false)
  | Concat _ -> (
    match other_s with
    | Some o when o.h = in_s.h && o.w = in_s.w -> { c = in_s.c + o.c; h = in_s.h; w = in_s.w }
    | Some _ -> fail net_name "concat over mismatched spatial dims"
    | None -> assert false)

(* Materialized channel count: keep tensors tiny but never smaller than the
   partition fan-out. *)
let mat_channels ~model ~parts = min model (max 8 parts)

(* Clamp a kernel so the materialized spatial extent never collapses. *)
let clamp_k ~k ~dim ~p = min k (dim + (2 * p))

let mat_out_shape spec ~mat_in ~other_mat =
  match spec with
  | Stage_input | Relu_layer | Tanh_layer | Sigmoid_layer | Softmax -> mat_in
  | Conv { oc; k; s; p; parts; _ } ->
    let mk = clamp_k ~k ~dim:(min mat_in.h mat_in.w) ~p in
    conv_out ~in_s:mat_in ~oc:(mat_channels ~model:oc ~parts) ~k:mk ~s ~p
  | Depthwise { k; s; p; _ } ->
    let mk = clamp_k ~k ~dim:(min mat_in.h mat_in.w) ~p in
    conv_out ~in_s:mat_in ~oc:mat_in.c ~k:mk ~s ~p
  | Maxpool { k; s } ->
    let mk = clamp_k ~k ~dim:(min mat_in.h mat_in.w) ~p:0 in
    conv_out ~in_s:mat_in ~oc:mat_in.c ~k:mk ~s ~p:0
  | Avgpool_global -> { c = mat_in.c; h = 1; w = 1 }
  | Fc { out; parts; _ } -> { c = mat_channels ~model:out ~parts; h = 1; w = 1 }
  | Add _ | Mul _ -> mat_in
  | Concat _ -> (
    match other_mat with
    | Some o -> { c = mat_in.c + o.c; h = mat_in.h; w = mat_in.w }
    | None -> assert false)

(* ---- plan ---- *)

type buffer_spec = {
  bname : string;
  busage : Session.usage;
  model_bytes : int;
  actual_bytes : int;
}

type job_spec = {
  jname : string;
  op : Shader.op;
  layer : int;
  input : string;
  input2 : string option;
  bias : string option;
  output : string;
  mat : Job_desc.params;
}

type plan = {
  net : t;
  buffers : buffer_spec list;
  jobs : job_spec list;
  input_buffer : string;
  output_buffer : string;
  mat_input : shape;
  mat_output : shape;
  weight_buffers : string list;
}

let base_params ~(mat_in : shape) ~(mat_out : shape) =
  {
    Job_desc.default_params with
    Job_desc.in_c = mat_in.c;
    in_h = mat_in.h;
    in_w = mat_in.w;
    out_c = mat_out.c;
    out_h = mat_out.h;
    out_w = mat_out.w;
  }

let op_of_spec = function
  | Stage_input -> Shader.Copy
  | Tanh_layer -> Shader.Tanh
  | Sigmoid_layer -> Shader.Sigmoid
  | Mul _ -> Shader.Mul
  | Conv _ -> Shader.Conv2d
  | Depthwise _ -> Shader.Depthwise
  | Maxpool _ -> Shader.Maxpool
  | Avgpool_global -> Shader.Avgpool
  | Fc _ -> Shader.Fc
  | Relu_layer -> Shader.Relu
  | Add _ -> Shader.Add
  | Concat _ -> Shader.Concat2
  | Softmax -> Shader.Softmax

let expand t =
  let n = Array.length t.nodes in
  if n = 0 then invalid_arg (t.name ^ ": empty network");
  let model_shapes = Array.make n t.model_input in
  let mat_shapes = Array.make n t.mat_input in
  let buffers = ref [] and jobs = ref [] and weight_names = ref [] in
  let add_buffer b = buffers := b :: !buffers in
  let act_name i = Printf.sprintf "act.%02d" i in
  let input_shape_of from arr = if from = -1 then None else Some arr.(from) in
  for i = 0 to n - 1 do
    let { spec; from } = t.nodes.(i) in
    if from >= i then invalid_arg (t.name ^ ": forward reference");
    let model_in = if from = -1 then t.model_input else model_shapes.(from) in
    let mat_in = if from = -1 then t.mat_input else mat_shapes.(from) in
    let other =
      match spec with
      | Add { other } | Mul { other } | Concat { other } ->
        if other < 0 || other >= i then invalid_arg (t.name ^ ": bad other reference");
        Some other
      | _ -> None
    in
    let other_model = Option.bind other (fun o -> input_shape_of o model_shapes) in
    let other_mat = Option.bind other (fun o -> input_shape_of o mat_shapes) in
    let model_out = model_out_shape t.name spec ~in_s:model_in ~other_s:other_model in
    let mat_out = mat_out_shape spec ~mat_in ~other_mat in
    model_shapes.(i) <- model_out;
    mat_shapes.(i) <- mat_out;
    (* Output activation buffer for this layer. *)
    let usage = if i = n - 1 then Session.Output else Session.Scratch in
    add_buffer
      {
        bname = act_name i;
        busage = usage;
        model_bytes = shape_bytes model_out;
        actual_bytes = shape_bytes mat_out;
      };
    let input_name = if from = -1 then "input" else act_name from in
    let op = op_of_spec spec in
    let emit ?(suffix = "") ?input2 ?bias mat =
      jobs :=
        {
          jname = Printf.sprintf "L%02d.%s%s" i (Shader.op_name op) suffix;
          op;
          layer = i;
          input = input_name;
          input2;
          bias;
          output = act_name i;
          mat;
        }
        :: !jobs
    in
    let weights ~model_bytes ~actual_bytes ~bias_n ~mat_bias_n =
      let w = Printf.sprintf "w.%02d" i and b = Printf.sprintf "b.%02d" i in
      add_buffer { bname = w; busage = Session.Weights; model_bytes; actual_bytes };
      add_buffer
        {
          bname = b;
          busage = Session.Weights;
          model_bytes = 4 * bias_n;
          actual_bytes = 4 * mat_bias_n;
        };
      weight_names := b :: w :: !weight_names;
      (w, b)
    in
    match spec with
    | Stage_input | Relu_layer | Tanh_layer | Sigmoid_layer | Softmax ->
      let p = base_params ~mat_in ~mat_out in
      emit { p with Job_desc.flops_hint = Kernels.flops op (base_params ~mat_in:model_in ~mat_out:model_out) }
    | Maxpool { k; s } ->
      let mk = clamp_k ~k ~dim:(min mat_in.h mat_in.w) ~p:0 in
      let p = { (base_params ~mat_in ~mat_out) with Job_desc.kh = mk; kw = mk; stride = s } in
      let model_p =
        { (base_params ~mat_in:model_in ~mat_out:model_out) with Job_desc.kh = k; kw = k; stride = s }
      in
      emit { p with Job_desc.flops_hint = Kernels.flops op model_p }
    | Avgpool_global ->
      let p = base_params ~mat_in ~mat_out in
      emit { p with Job_desc.flops_hint = Kernels.flops op (base_params ~mat_in:model_in ~mat_out:model_out) }
    | Add { other } ->
      (* Activation, when wanted, is an explicit Relu_layer after the add. *)
      let p = base_params ~mat_in ~mat_out in
      let model_p = base_params ~mat_in:model_in ~mat_out:model_out in
      emit ~input2:(act_name other) { p with Job_desc.flops_hint = Kernels.flops op model_p }
    | Mul { other } ->
      let p = base_params ~mat_in ~mat_out in
      let model_p = base_params ~mat_in:model_in ~mat_out:model_out in
      emit ~input2:(act_name other) { p with Job_desc.flops_hint = Kernels.flops op model_p }
    | Concat { other } ->
      let o_mat = Option.get other_mat and o_model = Option.get other_model in
      let p = { (base_params ~mat_in ~mat_out) with Job_desc.in2_c = o_mat.c } in
      let model_p =
        { (base_params ~mat_in:model_in ~mat_out:model_out) with Job_desc.in2_c = o_model.c }
      in
      emit ~input2:(act_name other) { p with Job_desc.flops_hint = Kernels.flops op model_p }
    | Depthwise { k; s; p = pad; relu } ->
      let mk = clamp_k ~k ~dim:(min mat_in.h mat_in.w) ~p:pad in
      let w, b =
        weights
          ~model_bytes:(4 * model_in.c * k * k)
          ~actual_bytes:(4 * mat_in.c * mk * mk)
          ~bias_n:model_in.c ~mat_bias_n:mat_in.c
      in
      let p =
        { (base_params ~mat_in ~mat_out) with Job_desc.kh = mk; kw = mk; stride = s; pad; relu }
      in
      let model_p =
        {
          (base_params ~mat_in:model_in ~mat_out:model_out) with
          Job_desc.kh = k;
          kw = k;
          stride = s;
          pad;
          relu;
        }
      in
      emit ~input2:w ~bias:b { p with Job_desc.flops_hint = Kernels.flops op model_p }
    | Conv { oc; k; s; p = pad; relu; parts } ->
      let mk = clamp_k ~k ~dim:(min mat_in.h mat_in.w) ~p:pad in
      let w, b =
        weights
          ~model_bytes:(4 * oc * model_in.c * k * k)
          ~actual_bytes:(4 * mat_out.c * mat_in.c * mk * mk)
          ~bias_n:oc ~mat_bias_n:mat_out.c
      in
      for part = 0 to parts - 1 do
        let p =
          {
            (base_params ~mat_in ~mat_out) with
            Job_desc.kh = mk;
            kw = mk;
            stride = s;
            pad;
            relu;
            part_idx = part;
            part_count = parts;
          }
        in
        let model_p =
          {
            (base_params ~mat_in:model_in ~mat_out:model_out) with
            Job_desc.kh = k;
            kw = k;
            stride = s;
            pad;
            relu;
            part_idx = part;
            part_count = parts;
          }
        in
        emit
          ~suffix:(Printf.sprintf ".%dof%d" (part + 1) parts)
          ~input2:w ~bias:b
          { p with Job_desc.flops_hint = Kernels.flops op model_p }
      done
    | Fc { out; relu; parts } ->
      let model_in_n = elems model_in and mat_in_n = elems mat_in in
      let w, b =
        weights
          ~model_bytes:(4 * out * model_in_n)
          ~actual_bytes:(4 * mat_out.c * mat_in_n)
          ~bias_n:out ~mat_bias_n:mat_out.c
      in
      for part = 0 to parts - 1 do
        let p =
          {
            (base_params ~mat_in ~mat_out) with
            Job_desc.relu;
            part_idx = part;
            part_count = parts;
          }
        in
        let model_p =
          {
            (base_params ~mat_in:model_in ~mat_out:model_out) with
            Job_desc.relu;
            part_idx = part;
            part_count = parts;
          }
        in
        emit
          ~suffix:(Printf.sprintf ".%dof%d" (part + 1) parts)
          ~input2:w ~bias:b
          { p with Job_desc.flops_hint = Kernels.flops op model_p }
      done
  done;
  let input_buffer = "input" in
  add_buffer
    {
      bname = input_buffer;
      busage = Session.Input;
      model_bytes = shape_bytes t.model_input;
      actual_bytes = shape_bytes t.mat_input;
    };
  {
    net = t;
    buffers = List.rev !buffers;
    jobs = List.rev !jobs;
    input_buffer;
    output_buffer = act_name (n - 1);
    mat_input = t.mat_input;
    mat_output = mat_shapes.(n - 1);
    weight_buffers = List.rev !weight_names;
  }

let model_flops plan =
  List.fold_left (fun acc j -> Int64.add acc j.mat.Job_desc.flops_hint) 0L plan.jobs

let model_weight_bytes plan =
  List.fold_left
    (fun acc b -> if b.busage = Session.Weights then acc + b.model_bytes else acc)
    0 plan.buffers
