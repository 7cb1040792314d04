package wire

// Message is one row of the wallet protocol: everything the codecs, the
// server's dispatch and refusals, the client and SPEC §5 need to know about a
// message type. Messages is the only list of them; to add a message, add its row
// here, a handler in internal/remote, a client method, and a SPEC §5 row.
type Message struct {
	Type MsgType
	// Code is the binary envelope's one-byte type code (SPEC §14.2). Codes
	// are protocol constants: never renumber, only append.
	Code byte
	// Body constructs the decode target for the body a frame of this type
	// carries; nil means it carries none. An `ok` reply's body depends on
	// the request it answers, so it is declared there (OK).
	Body func() any
	// BodyOptional lets a request omit its body; the server then serves
	// the zero request.
	BodyOptional bool
	// Reply is the type a request succeeds with. Empty marks a reply or a
	// push, which no server accepts as a request.
	Reply MsgType
	// OK constructs the decode target for the body of the `ok` that
	// answers this request; nil means a bare acknowledgement (or a reply
	// of another type, whose own row declares its body).
	OK func() any
	// Reserved marks a type that keeps its name and code so a frame from an
	// older build still decodes, but that nothing sends or serves.
	Reserved bool
	// Mutates marks a request that changes the served wallet's state; a
	// read-only replica refuses it (SPEC §9.3).
	Mutates bool
	// Tier is the part of a daemon that serves the request; a server without
	// that part refuses it (SPEC §5).
	Tier Tier
}

// Tier names the part of a daemon a request belongs to. Every server serves
// the wallet tier; the others are optional, and which of them a server
// serves follows from what it was started with.
type Tier uint8

const (
	TierWallet      Tier = iota // the wallet itself: every server
	TierReplication             // the changelog feed followers bootstrap and tail from (§9)
	TierCluster                 // shard-cluster membership (§12)
)

var tierNames = [...]string{"wallet", "replication", "cluster"}

func (t Tier) String() string { return tierNames[t] }

// Messages declares the protocol, one row per message type: requests
// (codes 1–31), then replies and pushes (32 up).
var Messages = []Message{
	{Type: TPublish, Code: 1, Body: body[PublishReq], Reply: TOK, Mutates: true},
	{Type: TQueryDirect, Code: 2, Body: body[QueryReq], Reply: TProof},
	{Type: TQuerySubject, Code: 3, Body: body[QueryReq], Reply: TProofs},
	{Type: TQueryObject, Code: 4, Body: body[QueryReq], Reply: TProofs},
	{Type: TSubscribe, Code: 5, Body: body[SubscribeReq], Reply: TOK},
	{Type: TUnsubscribe, Code: 6, Body: body[SubscribeReq], Reply: TOK},
	{Type: TRevoke, Code: 7, Body: body[RevokeReq], Reply: TOK, Mutates: true},
	{Type: TProveRole, Code: 8, Body: body[ProveRoleReq], Reply: TProof},
	{Type: THas, Code: 9, Body: body[HasReq], Reply: TOK, OK: body[HasResp]},
	{Type: TPing, Code: 10, Reply: TPong},
	{Type: TStats, Code: 11, Reply: TOK, OK: body[StatsResp]},
	{Type: TSync, Code: 12, Reply: TOK, OK: body[SyncResp], Tier: TierReplication},
	{Type: TSubscribeAll, Code: 13, Reply: TOK, OK: body[SubscribeAllResp], Tier: TierReplication},
	{Type: TSyncSegments, Code: 14, Reserved: true},
	{Type: TTrace, Code: 15, Body: body[TraceReq], Reply: TOK, OK: body[TraceResp]},
	{Type: TShardMap, Code: 16, Reply: TOK, OK: body[ShardMapResp], Tier: TierCluster},
	{Type: TDHTFindNode, Code: 17, Reserved: true},
	{Type: TDHTFindValue, Code: 18, Reserved: true},
	{Type: TDHTStore, Code: 19, Reserved: true},
	{Type: TGossipPing, Code: 20, Reserved: true},
	{Type: TGossipPingReq, Code: 21, Reserved: true},
	{Type: TQueryExpand, Code: 22, Body: body[QueryReq], Reply: TProofs},

	{Type: TOK, Code: 32},
	{Type: TProof, Code: 33, Body: body[ProofResp]},
	{Type: TProofs, Code: 34, Body: body[ProofsResp]},
	{Type: TError, Code: 35, Body: body[ErrorResp]},
	{Type: TNotify, Code: 36, Body: body[NotifyPush]},
	{Type: TPong, Code: 37},
	{Type: TClusterHello, Code: 38, Body: body[ShardMapResp], Reserved: true},
}

func body[T any]() any { return new(T) }

// byType and byCode index Messages for the codecs and for Lookup.
var (
	byType = make(map[MsgType]*Message, len(Messages))
	byCode [256]*Message
)

func init() {
	for i := range Messages {
		m := &Messages[i]
		byType[m.Type] = m
		byCode[m.Code] = m
	}
}

// Lookup returns the row declaring message type t, or nil when the
// protocol has no such type.
func Lookup(t MsgType) *Message { return byType[t] }
