"""Slot perception: circle detection, crop classification, target selection."""

from .cnn import (CnnWeights, TrainingDiverged, check_weights, forward,
                  init_weights, load_weights, loss_and_grads, save_weights,
                  train_cnn)
from .hough import Candidate, ChtParams, cht_params_for, detect_circles
from .pipeline import (Label, NoValidSlotError, ScoredCandidate,
                       accepted_rack_candidates, extract_crops,
                       generate_labeled_dataset, label_candidate,
                       refined_camera_z, score_candidates, select_target,
                       train_discriminator)

__all__ = [
    "Candidate",
    "ChtParams",
    "CnnWeights",
    "Label",
    "NoValidSlotError",
    "ScoredCandidate",
    "TrainingDiverged",
    "accepted_rack_candidates",
    "check_weights",
    "cht_params_for",
    "detect_circles",
    "extract_crops",
    "forward",
    "generate_labeled_dataset",
    "init_weights",
    "label_candidate",
    "load_weights",
    "loss_and_grads",
    "refined_camera_z",
    "save_weights",
    "score_candidates",
    "select_target",
    "train_cnn",
    "train_discriminator",
]
