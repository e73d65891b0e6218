"""softverbs: a software-emulated RDMA verbs stack.

Queue pairs, completion queues, memory regions and the rest of the verbs
resource model run against an in-process reliable-connection fabric
(or a UDP socket transport between processes), far enough to run a
real send/recv pingpong end to end.
"""

from .verbs import (
    AccessFlags,
    AddressHandle,
    AttrMask,
    BadWorkRequestError,
    CompletionEntry,
    CompletionQueueError,
    Device,
    DeviceRegistry,
    ModifyAttributes,
    QpAttributes,
    QpState,
    QpType,
    QueueCaps,
    ReceiveWorkRequest,
    ScatterGatherElement,
    SendWorkRequest,
    VerbsError,
    WcOpcode,
    WcStatus,
)
from .wire import Frame, FrameDecodeError, FrameEncodeError, FrameKind, \
    SegMark, decode_frame, encode_frame
from .fabric import (
    FabricConfig,
    FaultProfile,
    LoopbackFabric,
    SocketFabric,
    load_fabric_config,
    parse_fabric_config,
    parse_faults_spec,
)
from .oob import (
    Destination,
    DestinationFormatError,
    ExchangeError,
    decode_destination,
    encode_destination,
    exchange_as_client,
    exchange_as_server,
)
from .pingpong import (
    PingpongConfig,
    PingpongContext,
    PingpongError,
    RunStats,
    connect_ctx,
    init_context,
    post_receives,
    report,
    run_loop,
    run_loopback_pair,
    run_node,
)

__version__ = "0.1.0"
