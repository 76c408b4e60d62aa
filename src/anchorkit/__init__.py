"""anchorkit: persistent object anchoring from detections and action events."""
