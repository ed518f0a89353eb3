package main

// surface.go is the benchmark's whole view of the program: every import
// of snnsec/internal/... lives in this file, as a type alias or a
// function value, and the rest of the package names only these and the
// standard library. It is the list of public functions the benchmark
// drives and times from outside, so a change that renames or reshapes
// one of them has exactly one place to follow up here.

import (
	"snnsec/internal/attack"
	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/core"
	"snnsec/internal/dataset"
	"snnsec/internal/explore"
	"snnsec/internal/modelio"
	"snnsec/internal/nn"
	"snnsec/internal/obs"
	"snnsec/internal/serve"
	"snnsec/internal/snn"
	"snnsec/internal/stream"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

type (
	// compute, tensor
	backend     = compute.Backend
	tensorT     = tensor.Tensor
	spikeTensor = tensor.SpikeTensor
	convParams  = tensor.ConvParams

	// autodiff, nn, snn
	value      = autodiff.Value
	classifier = nn.Classifier
	snnNetwork = snn.Network
	snnTrace   = snn.Trace

	// dataset, core
	datasetT   = dataset.Dataset
	dataConfig = core.DataConfig

	// explore, attack
	exploreConfig = explore.Config
	exploreResult = explore.Result
	trainedPoint  = explore.TrainedPoint
	gridPoint     = explore.Point
	curvePoint    = attack.CurvePoint
	attackT       = attack.Attack
	pgdAttack     = attack.PGD
	identity      = attack.Identity

	// serve
	engine      = serve.Engine
	serveConfig = serve.Config
	serveModel  = serve.Model
	serveServer = serve.Server
	serveRunner = serve.Runner
	traceRecord = serve.TraceRecord

	// stream
	event        = stream.Event
	streamConfig = stream.Config
	binnerConfig = stream.BinnerConfig
	window       = stream.Window
	streamRunner = stream.Runner
	streamServer = stream.Server
)

var (
	// compute, obs
	newSerial       = compute.NewSerial
	newBackend      = compute.New
	defaultBackend  = compute.Default
	setDefault      = compute.SetDefault
	packSpikePlanes = compute.PackSpikePlanes
	obsArm          = obs.Arm
	obsDisarm       = obs.Disarm
	defaultRegistry = obs.Default

	// tensor
	newTensor        = tensor.New
	newRand          = tensor.NewRand
	randN            = tensor.RandN
	argmaxRowsOn     = tensor.ArgmaxRowsOn
	conv2DOn         = tensor.Conv2DOn
	conv2DBackwardOn = tensor.Conv2DBackwardOn
	spikeConv2DOn    = tensor.SpikeConv2DOn
	matMulOn         = tensor.MatMulOn
	spikeMatMulOn    = tensor.SpikeMatMulOn
	packSpikesOn     = tensor.PackSpikesOn

	// autodiff, snn, train
	newTapeOn  = autodiff.NewTapeOn
	lifStep    = snn.LIFStep
	newAdam    = train.NewAdam
	evaluateOn = train.EvaluateOn
	predictOn  = train.PredictOn
	logitsOn   = train.LogitsOn

	// dataset, core
	synthDigits              = dataset.SynthDigits
	defaultSynthConfig       = dataset.DefaultSynthConfig
	newGlyphEventStream      = dataset.NewGlyphEventStream
	defaultEventStreamConfig = dataset.DefaultEventStreamConfig
	benchScale               = core.BenchScale
	loadData                 = core.LoadData
	buildFromCheckpoint      = core.BuildFromCheckpoint

	// explore, attack, modelio
	exploreRun              = explore.Run
	exploreTrainPointAt     = explore.TrainPointAt
	exploreAttackPointAt    = explore.AttackPointAt
	exploreNewPartialResult = explore.NewPartialResult
	attackCurveOn           = attack.CurveOn
	attackDatasetBounds     = attack.DatasetBounds
	modelioBytes            = modelio.Bytes
	modelioFromBytes        = modelio.FromBytes
	modelioFingerprint      = modelio.Fingerprint

	// serve, stream
	serveNewEngine           = serve.NewEngine
	serveNewServer           = serve.NewServer
	serveParsePredictRequest = serve.ParsePredictRequest
	streamNewServer          = stream.NewServer
	streamNewBinner          = stream.NewBinner
)
