package corpusgen

import "wasabi/internal/apps/meta"

// Idiom name constants. Every constant here must be documented in
// docs/CORPUSGEN.md (scripts/docs_check.sh enforces the pairing), and the
// quota table below must sum to the seed corpus marginals of
// docs/CORPUS.md: 77 loop / 12 queue / 9 state-machine, 86 exception /
// 12 error-code, 82 keyworded, per 98 structures.
const (
	// IdiomBoundedBackoff is the classic bounded retry loop with
	// exponential backoff and a fatal-exception abort path.
	IdiomBoundedBackoff = "bounded-backoff"
	// IdiomBackoffJitter spreads bounded retries with a jittered delay —
	// an idiom the hand-written seed corpus lacks.
	IdiomBackoffJitter = "backoff-jitter"
	// IdiomIdempotencyToken replays an upload under one idempotency
	// token, making the re-send safe (new idiom).
	IdiomIdempotencyToken = "idempotency-token"
	// IdiomRPCBoundary retries client-side through an RPC proxy while the
	// failure originates server-side (new idiom).
	IdiomRPCBoundary = "rpc-boundary"
	// IdiomHedgedRequest re-requests a straggling read from a mirror; no
	// retry keyword appears, so only the LLM lane identifies it (new idiom).
	IdiomHedgedRequest = "hedged-request"
	// IdiomSagaCompensation compensates completed saga steps and re-runs
	// the saga; LLM-only, and the host of generated HOW bugs (new idiom).
	IdiomSagaCompensation = "saga-compensation"
	// IdiomStatusBackoff is error-code retry: a loop switching on a
	// status code with backoff, invisible to exception injection.
	IdiomStatusBackoff = "status-backoff"
	// IdiomQueueRequeue re-enqueues failed work items with a retry budget.
	IdiomQueueRequeue = "queue-requeue"
	// IdiomQueueRedispatch re-dispatches undeliverable updates to a
	// standby queue without retry vocabulary (LLM-only).
	IdiomQueueRedispatch = "queue-redispatch"
	// IdiomStateMachineExc is a step state machine retrying exception
	// failures of the current step in place.
	IdiomStateMachineExc = "state-machine-exc"
	// IdiomStateMachineCode is a step state machine driven by verdict
	// codes rather than exceptions.
	IdiomStateMachineCode = "state-machine-code"
)

// Exception vocabulary of the generated corpus.
const (
	classConnect       = "ConnectException"
	classSocketTimeout = "SocketTimeoutException"
	classAccessControl = "AccessControlException"
	classKeeperLoss    = "KeeperConnectionLossException"
	// classWrap is what WrapsErrors structures wrap give-up errors in —
	// the §4.3 "different exception" false-positive source.
	classWrap = "JobExecutionException"
	// classHow is what generated HOW bugs crash with after compensation
	// corrupts saga state.
	classHow = "IllegalStateException"
)

// Seed-corpus marginals per 98 structures (measured from the seed
// manifests; the envelope test keeps generation honest against them).
const (
	missingCapPer98   = 13
	missingDelayPer98 = 19
	howPer98          = 3
	ifNotRetriedPer98 = 2
	ifRetriedPer98    = 7

	harnessRetriedPer98 = 6
	delayUnneededPer98  = 4
	wrapsErrorsPer98    = 3
)

// idiomInfo is one row of the generation grammar.
type idiomInfo struct {
	Name      string
	Per98     int // instances per 98 structures (seed-envelope quota)
	Mechanism meta.Mechanism
	Trigger   meta.Trigger
	Keyworded bool

	// DeclaresAbort marks idioms that declare AccessControlException and
	// abort on it — the pool if-retried outliers are drawn from.
	DeclaresAbort bool
	// IFEligible marks keyworded exception loops that may become
	// if-not-retried outliers (abort a class the population retries).
	IFEligible bool
	// WhenEligible marks idioms whose instances may carry WHEN bugs
	// (missing-cap / missing-delay) or the FP flags.
	WhenEligible bool

	Cap     int // default attempt budget
	DelayMS int // default inter-attempt delay
	Steps   int // saga / state-machine step count (0 otherwise)

	Throws []string // classes the retried method(s) declare
	Aborts []string // classes the coordinator gives up on by default

	// Types is the type-name pool; CoordVerb/RetriedVerb are the method
	// base names ("<verb><ordinal>" keeps short names unique per app).
	Types       []string
	CoordVerb   string
	RetriedVerb string
}

// idiomTable is the generation grammar: quotas sum to 98 and reproduce
// the seed marginals exactly (77/12/9 mechanism, 86/12 trigger, 82
// keyworded).
var idiomTable = []idiomInfo{
	{
		Name: IdiomBoundedBackoff, Per98: 21,
		Mechanism: meta.Loop, Trigger: meta.Exception, Keyworded: true,
		DeclaresAbort: true, IFEligible: true, WhenEligible: true,
		Cap: 4, DelayMS: 120,
		Throws: []string{classConnect, classSocketTimeout, classAccessControl},
		Aborts: []string{classAccessControl},
		Types: []string{"BlockFetcher", "ChunkReader", "SegmentPuller",
			"ManifestLoader", "ReplicaReader", "IndexFetcher", "SnapshotPuller"},
		CoordVerb: "Fetch", RetriedVerb: "fetchOnce",
	},
	{
		Name: IdiomBackoffJitter, Per98: 12,
		Mechanism: meta.Loop, Trigger: meta.Exception, Keyworded: true,
		IFEligible: true, WhenEligible: true,
		Cap: 4, DelayMS: 90,
		Throws: []string{classConnect, classSocketTimeout},
		Types: []string{"HeartbeatSender", "MetricsFlusher", "WalSyncer",
			"OffsetCommitter", "TokenRefresher"},
		CoordVerb: "Send", RetriedVerb: "sendOnce",
	},
	{
		Name: IdiomIdempotencyToken, Per98: 10,
		Mechanism: meta.Loop, Trigger: meta.Exception, Keyworded: true,
		IFEligible: true, WhenEligible: true,
		Cap: 5, DelayMS: 90,
		Throws: []string{classConnect, classSocketTimeout},
		Types: []string{"UploadSession", "LedgerAppender", "ReceiptWriter",
			"BatchPoster", "StampedPusher"},
		CoordVerb: "Put", RetriedVerb: "putOnce",
	},
	{
		Name: IdiomRPCBoundary, Per98: 12,
		Mechanism: meta.Loop, Trigger: meta.Exception, Keyworded: true,
		DeclaresAbort: true, IFEligible: true, WhenEligible: true,
		Cap: 4, DelayMS: 150,
		Throws: []string{classConnect, classSocketTimeout, classAccessControl},
		Aborts: []string{classAccessControl},
		Types: []string{"LeaseClient", "NameClient", "RegistryClient",
			"QuotaClient", "JournalClient", "FenceClient"},
		CoordVerb: "Renew", RetriedVerb: "proxyRenew",
	},
	{
		Name: IdiomHedgedRequest, Per98: 8,
		Mechanism: meta.Loop, Trigger: meta.Exception, Keyworded: false,
		WhenEligible: true,
		Cap:          3, DelayMS: 40,
		Throws: []string{classConnect, classSocketTimeout},
		Types: []string{"ReadRouter", "TailCutter", "MirrorSelector",
			"StragglerGuard"},
		CoordVerb: "Get", RetriedVerb: "mirrorGet",
	},
	{
		Name: IdiomSagaCompensation, Per98: 6,
		Mechanism: meta.Loop, Trigger: meta.Exception, Keyworded: false,
		Cap: 3, DelayMS: 70, Steps: 3,
		Throws:    []string{classConnect},
		Types:     []string{"CheckoutSaga", "ProvisionSaga", "TransferSaga"},
		CoordVerb: "Run", RetriedVerb: "step",
	},
	{
		Name: IdiomStatusBackoff, Per98: 8,
		Mechanism: meta.Loop, Trigger: meta.ErrorCode, Keyworded: true,
		Cap: 4, DelayMS: 80,
		Types: []string{"CompactionWatcher", "RebalanceWatcher",
			"VerifierLoop", "DrainWatcher"},
		CoordVerb: "Watch", RetriedVerb: "",
	},
	{
		Name: IdiomQueueRequeue, Per98: 10,
		Mechanism: meta.Queue, Trigger: meta.Exception, Keyworded: true,
		WhenEligible: true,
		Cap:          4, DelayMS: 60,
		Throws: []string{classConnect, classSocketTimeout},
		Types: []string{"DispatchWorker", "ReplicationWorker",
			"AuditWorker", "ExportWorker", "CompactWorker"},
		CoordVerb: "Drain", RetriedVerb: "deliver",
	},
	{
		Name: IdiomQueueRedispatch, Per98: 2,
		Mechanism: meta.Queue, Trigger: meta.Exception, Keyworded: false,
		Cap: 3, DelayMS: 50,
		Throws:    []string{classConnect},
		Types:     []string{"RouteTable", "StandbyPublisher"},
		CoordVerb: "Push", RetriedVerb: "publish",
	},
	{
		Name: IdiomStateMachineExc, Per98: 5,
		Mechanism: meta.StateMachine, Trigger: meta.Exception, Keyworded: true,
		Cap: 4, DelayMS: 100, Steps: 2,
		Throws:    []string{classKeeperLoss},
		Types:     []string{"RecoveryProc", "HandoffProc", "ReopenProc"},
		CoordVerb: "Execute", RetriedVerb: "step",
	},
	{
		Name: IdiomStateMachineCode, Per98: 4,
		Mechanism: meta.StateMachine, Trigger: meta.ErrorCode, Keyworded: true,
		Cap: 4, DelayMS: 100, Steps: 3,
		Types:     []string{"ShardMover", "RegionSplitter"},
		CoordVerb: "Execute", RetriedVerb: "",
	},
}

// sagaStepVerbs / smStepVerbs name the per-step retried methods.
var sagaStepVerbs = []string{"stepReserve", "stepCharge", "stepRecord"}
var smStepVerbs = []string{"stepOpen", "stepReplay", "stepSeal"}

// IdiomNames returns every idiom name in table order (docs tooling).
func IdiomNames() []string {
	out := make([]string, 0, len(idiomTable))
	for _, i := range idiomTable {
		out = append(out, i.Name)
	}
	return out
}
