(** Network descriptions and their expansion into GPU job plans.

    A network is a DAG of layers over CHW tensors. Layers carry *model*
    (paper-scale) shapes; expansion derives *materialized* shapes — a small
    prefix the simulator actually computes — and splits heavy operators into
    several GPU jobs by output-channel partitioning, the way a mobile runtime
    tiles work across shader cores. Per-job model-scale FLOPs and buffer
    sizes drive the timing/traffic model; materialized shapes drive real
    numerics. *)

type shape = { c : int; h : int; w : int }

val elems : shape -> int
val shape_bytes : shape -> int

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
  | Add of { other : int }  (** residual add with layer [other]'s output *)
  | Mul of { other : int }  (** elementwise gate with layer [other]'s output *)
  | Concat of { other : int }  (** channel concat with layer [other]'s output *)
  | Softmax

type node = { spec : spec; from : int }
(** [from] is the producing layer index ([-1] = network input). *)

type t = {
  name : string;
  model_input : shape;
  mat_input : shape;
  nodes : node array;
}

(** Builder for wiring DAGs without hand-counting indices. *)
module Builder : sig
  type b

  val create : unit -> b
  val add : b -> ?from:int -> spec -> int
  (** Append a node consuming [from] (default: the previous node's output)
      and return its layer index. *)

  val nodes : b -> node array
end

val job_count : t -> int
(** Number of GPU jobs the network expands to. *)

(** Expanded execution plan. *)

type buffer_spec = {
  bname : string;
  busage : Grt_runtime.Session.usage;
  model_bytes : int;
  actual_bytes : int;
}

type job_spec = {
  jname : string;
  op : Grt_gpu.Shader.op;
  layer : int;
  input : string;
  input2 : string option;
  bias : string option;
  output : string;
  mat : Grt_gpu.Job_desc.params;  (** materialized geometry; [flops_hint] is model-scale *)
}

type plan = {
  net : t;
  buffers : buffer_spec list;
  jobs : job_spec list;
  input_buffer : string;
  output_buffer : string;
  mat_input : shape;
  mat_output : shape;
  weight_buffers : string list;  (** names of weight/bias buffers, in layer order *)
}

val expand : t -> plan
(** Raises [Invalid_argument] on malformed networks (bad wiring, shapes that
    collapse to zero). *)

val model_flops : plan -> int64
(** Total model-scale FLOPs over all jobs. *)

val model_weight_bytes : plan -> int
(** Total model-scale bytes of weight/bias buffers. *)
